//! Loopback serving assembly: one primary session server with fleet
//! read routing plus one read server per member, all on local
//! addresses — the three-node quick-start from the README, packaged.
//!
//! Replication is [`LocalCluster::spawn_pumps`]: one dedicated
//! shipping thread per member ([`MemberPump`]) that tails the
//! primary's WAL, ships batched frame envelopes with a bounded
//! in-flight window, and feeds acks into the quorum tracker
//! continuously — commits clear the quorum in one shipping round-trip
//! with nobody driving a loop. Until the pumps are spawned nothing
//! ships, which is how tests stage a stale fleet and an unreplicated
//! commit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvolap_core::Tmd;
use mvolap_durable::{DurableTmd, GroupCommit, GroupConfig, Io, Options};
use mvolap_replica::{Follower, NetAddr, NetConfig};
use mvolap_server::{FleetMember, ServerOptions, SessionServer};
use mvolap_server::{ServerError, SessionClient};

use crate::pump::{MemberPump, MemberPumpStatus, PumpConfig, PumpShared, PumpThread, PumpTracker};
use crate::set::PendingReconfig;

/// A quorum-replicated serving group on loopback: the primary's
/// session server (writes, primary reads, fleet-routed bounded reads)
/// and one read server per member, each fronting that member's
/// replica.
pub struct LocalCluster {
    primary: SessionServer,
    readers: Vec<(String, SessionServer)>,
    commit: GroupCommit,
    base: PathBuf,
    primary_dir: PathBuf,
    store_opts: Options,
    server_opts: ServerOptions,
    voters: usize,
    pending: Option<PendingReconfig>,
    pump_cfg: Option<PumpConfig>,
    pump_shared: Option<Arc<PumpShared>>,
    pump_tracker: PumpTracker,
    pumps: Vec<PumpThread>,
}

impl LocalCluster {
    /// Creates a fresh primary store seeded with `schema` under
    /// `dir/primary` and one replica per `(name, bind)` in `members`
    /// under `dir/<name>`, then spawns every server. The quorum is
    /// sized to the whole group (primary plus members). Replication
    /// starts stalled until [`LocalCluster::spawn_pumps`] hands it to
    /// the shipping threads.
    ///
    /// # Errors
    ///
    /// [`ServerError::Commit`] when a store cannot be created,
    /// [`ServerError::Transport`] when an address cannot be bound.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        dir: &Path,
        schema: Tmd,
        primary_bind: &NetAddr,
        members: &[(String, NetAddr)],
        store_opts: Options,
        group_cfg: GroupConfig,
        opts: ServerOptions,
        net: NetConfig,
    ) -> Result<LocalCluster, ServerError> {
        let primary_dir = dir.join("primary");
        let store = DurableTmd::create_with(&primary_dir, schema, store_opts.clone(), Io::plain())
            .map_err(|e| ServerError::Commit(e.to_string()))?;
        let commit = GroupCommit::new(store, group_cfg);
        commit.configure_quorum(members.len() + 1);

        let mut readers = Vec::with_capacity(members.len());
        let mut fleet = Vec::with_capacity(members.len());
        for (name, bind) in members {
            let follower = Follower::create(name, dir.join(name), store_opts.clone(), Io::plain());
            let server =
                SessionServer::spawn_with_follower(bind, commit.clone(), follower, opts.clone())?;
            fleet.push(FleetMember {
                name: name.clone(),
                addr: server.addr().clone(),
            });
            readers.push((name.clone(), server));
        }
        let primary = SessionServer::spawn_with_fleet(
            primary_bind,
            commit.clone(),
            fleet,
            net,
            opts.clone(),
        )?;
        Ok(LocalCluster {
            primary,
            readers,
            commit,
            base: dir.to_path_buf(),
            primary_dir,
            store_opts,
            server_opts: opts,
            voters: members.len() + 1,
            pending: None,
            pump_cfg: None,
            pump_shared: None,
            pump_tracker: PumpTracker::new(),
            pumps: Vec::new(),
        })
    }

    /// The primary session server's address — where clients `commit`,
    /// `query` and send bounded `read`s for fleet routing.
    #[must_use]
    pub fn primary_addr(&self) -> &NetAddr {
        self.primary.addr()
    }

    /// The read servers' addresses, in member order.
    #[must_use]
    pub fn member_addrs(&self) -> Vec<(String, NetAddr)> {
        self.readers
            .iter()
            .map(|(n, s)| (n.clone(), s.addr().clone()))
            .collect()
    }

    /// A clone of the primary's group-commit handle (quorum watermark,
    /// WAL position, out-of-band writes).
    #[must_use]
    pub fn group(&self) -> GroupCommit {
        self.commit.clone()
    }

    /// Hands replication to dedicated shipping threads: one
    /// [`MemberPump`] per member, each tailing the primary's WAL and
    /// shipping batched envelopes under `cfg`'s in-flight window.
    /// From here commits clear the quorum and fleet read freshness
    /// advances on its own. Idempotent — later calls are no-ops while
    /// pumps run.
    pub fn spawn_pumps(&mut self, cfg: PumpConfig) {
        if self.pump_shared.is_some() {
            return;
        }
        let shared = PumpShared::new(self.commit.clone());
        for (name, server) in &self.readers {
            let Some(follower) = server.follower_handle() else {
                continue;
            };
            let pump = MemberPump::new(
                shared.clone(),
                name.clone(),
                follower,
                &self.primary_dir,
                cfg.clone(),
                self.pump_tracker.clone(),
            );
            self.pumps.push(pump.spawn());
        }
        self.pump_cfg = Some(cfg);
        self.pump_shared = Some(shared);
    }

    /// Journals a single-member **add** ([`PendingReconfig::journal`]):
    /// `name` enters as a **learner** whose acks count from its own
    /// record on — its pump (spawned here when shipping threads are
    /// running) ships the covering checkpoint snapshot in resumable
    /// chunks and then tails frames. The joiner is promoted to voter
    /// and added to fleet read routing only once
    /// [`LocalCluster::settle_membership`] (or
    /// [`LocalCluster::await_membership`]) finds the change settled.
    /// Returns the reconfig record's LSN.
    ///
    /// # Errors
    ///
    /// [`ServerError::Commit`] when a prior reconfiguration is still
    /// in flight ([`mvolap_durable::DurableError::ReconfigInFlight`]),
    /// when `name` is already in the group, or when the record cannot
    /// be journaled; [`ServerError::Transport`] when `bind` cannot be
    /// bound (nothing is journaled then).
    pub fn join(&mut self, name: &str, bind: &NetAddr) -> Result<u64, ServerError> {
        if self.readers.iter().any(|(n, _)| n == name) || name == "primary" {
            return Err(ServerError::Commit(format!(
                "`{name}` is already a member of the group"
            )));
        }
        let follower = Follower::create(
            name,
            self.base.join(name),
            self.store_opts.clone(),
            Io::plain(),
        );
        // Bind before journaling: a joiner that cannot serve must not
        // leave an add in flight that nothing will ever settle.
        let mut server = SessionServer::spawn_with_follower(
            bind,
            self.commit.clone(),
            follower,
            self.server_opts.clone(),
        )?;
        let lsn = match self.journal(true, name, &bind.to_string()) {
            Ok(lsn) => lsn,
            Err(e) => {
                server.stop();
                return Err(e);
            }
        };
        if let (Some(shared), Some(cfg)) = (&self.pump_shared, &self.pump_cfg) {
            if let Some(handle) = server.follower_handle() {
                let pump = MemberPump::new(
                    shared.clone(),
                    name.to_string(),
                    handle,
                    &self.primary_dir,
                    cfg.clone(),
                    self.pump_tracker.clone(),
                );
                self.pumps.push(pump.spawn());
            }
        }
        self.readers.push((name.to_string(), server));
        Ok(lsn)
    }

    /// Journals a change ([`PendingReconfig::journal`]) as the one in
    /// flight and returns its record's LSN.
    fn journal(&mut self, add: bool, name: &str, addr: &str) -> Result<u64, ServerError> {
        let pending = PendingReconfig::journal(
            &self.commit,
            self.pending.as_ref(),
            self.voters,
            add,
            name,
            addr,
        )
        .map_err(|e| ServerError::Commit(e.to_string()))?;
        let lsn = pending.lsn;
        self.pending = Some(pending);
        Ok(lsn)
    }

    /// Journals a single-member **remove** ([`PendingReconfig::journal`]):
    /// the member's pump is halted and drained, its read server stops, and
    /// fleet reads re-route to the next-freshest member immediately.
    /// Returns the reconfig record's LSN; the change completes once
    /// the record is quorum-committed under the shrunk group
    /// ([`LocalCluster::settle_membership`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::Commit`] when a prior reconfiguration is still
    /// in flight, when `name` is not a member, or when the record
    /// cannot be journaled.
    pub fn leave(&mut self, name: &str) -> Result<u64, ServerError> {
        let Some(idx) = self.readers.iter().position(|(n, _)| n == name) else {
            return Err(ServerError::Commit(format!(
                "`{name}` is not a member of the group"
            )));
        };
        let lsn = self.journal(false, name, "")?;
        self.voters -= 1;
        self.primary.remove_fleet_member(name);
        if let Some(i) = self.pumps.iter().position(|p| p.member() == name) {
            let mut pump = self.pumps.remove(i);
            pump.stop();
            pump.join();
        }
        let (_, mut server) = self.readers.remove(idx);
        server.stop();
        Ok(lsn)
    }

    /// Completes the in-flight membership change once
    /// [`PendingReconfig::settle`] — the rule the model group settles
    /// by too — says it has; a promoted joiner joins fleet read
    /// routing. Returns the settled member's name, or `None` while the
    /// change is still in flight (or none is).
    pub fn settle_membership(&mut self) -> Option<String> {
        let pending = self.pending.take_if(|p| p.settle(&self.commit))?;
        if pending.add {
            self.voters += 1;
            if let Some((_, server)) = self.readers.iter().find(|(n, _)| *n == pending.member) {
                self.primary.add_fleet_member(FleetMember {
                    name: pending.member.clone(),
                    addr: server.addr().clone(),
                });
            }
        }
        Some(pending.member)
    }

    /// Blocks until the in-flight membership change settles (shipping
    /// threads must be running, or nothing can catch the joiner up).
    ///
    /// # Errors
    ///
    /// [`ServerError::Commit`] naming the stuck member when `timeout`
    /// elapses first.
    pub fn await_membership(&mut self, timeout: Duration) -> Result<String, ServerError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(name) = self.settle_membership() {
                return Ok(name);
            }
            let Some(p) = &self.pending else {
                return Err(ServerError::Commit(
                    "no membership change in flight".to_string(),
                ));
            };
            if Instant::now() >= deadline {
                return Err(ServerError::Commit(format!(
                    "membership change for `{}` did not settle within {timeout:?}",
                    p.member
                )));
            }
            // Park until replication makes progress (acks notify), in
            // bounded slices so the deadline always fires.
            self.commit
                .wait_synced_past(p.lsn, Duration::from_millis(25));
        }
    }

    /// The membership change in flight, if any.
    #[must_use]
    pub fn reconfig_pending(&self) -> Option<&PendingReconfig> {
        self.pending.as_ref()
    }

    /// Every member and whether it is still an unpromoted learner.
    #[must_use]
    pub fn membership(&self) -> Vec<(String, bool)> {
        self.readers
            .iter()
            .map(|(n, _)| (n.clone(), self.commit.is_learner(n)))
            .collect()
    }

    /// Every member pump's typed state and counters (empty until
    /// [`LocalCluster::spawn_pumps`] starts the shipping threads).
    #[must_use]
    pub fn pump_status(&self) -> Vec<(String, MemberPumpStatus)> {
        self.pump_tracker.all()
    }

    /// A snapshot of the primary session server's pool counters —
    /// occupancy (active / queued / parked sessions), lifetime served /
    /// refused / forwarded totals and per-shard memo hits. This is the
    /// fleet's front door: `forwarded` counts the queries the primary
    /// spread onto member read servers.
    #[must_use]
    pub fn primary_stats(&self) -> mvolap_server::PoolStats {
        self.primary.pool_stats()
    }

    /// A session client for the primary server.
    #[must_use]
    pub fn client(&self, net: NetConfig) -> SessionClient {
        SessionClient::connect(self.primary.addr().clone(), net)
    }

    /// Stops everything: the primary first (no new commits race the
    /// shutdown), then the shipping threads, then the read servers.
    /// Idempotent; also run on drop.
    pub fn stop(&mut self) {
        self.primary.stop();
        if let Some(shared) = &self.pump_shared {
            shared.request_stop();
        }
        for pump in &mut self.pumps {
            pump.join();
        }
        self.pumps.clear();
        for (_, server) in &mut self.readers {
            server.stop();
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.stop();
    }
}
