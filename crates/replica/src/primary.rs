//! The write-accepting node of the cross-process path: a
//! [`DurableTmd`] behind an epoch and a fencing flag. A
//! [`crate::net::ReplicaServer`] serves one to followers; the quorum
//! group has its own ([`mvolap_durable::GroupCommit`]-backed) primary
//! in `mvolap-cluster`.

use mvolap_core::Tmd;
use mvolap_durable::{DurableTmd, WalRecord};

use crate::error::ReplicaError;
use crate::tailer::WalTailer;

/// The write-accepting node. Wraps a [`DurableTmd`] with an epoch and
/// a fencing flag: once fenced, every write is refused with
/// [`ReplicaError::Fenced`].
#[derive(Debug)]
pub struct PrimaryNode {
    name: String,
    store: DurableTmd,
    epoch: u64,
    fenced: bool,
}

impl PrimaryNode {
    /// Wraps an existing store as primary at `epoch`.
    pub fn from_store(name: impl Into<String>, store: DurableTmd, epoch: u64) -> PrimaryNode {
        PrimaryNode {
            name: name.into(),
            store,
            epoch,
            fenced: false,
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this node has been fenced.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &DurableTmd {
        &self.store
    }

    /// Current schema.
    pub fn schema(&self) -> &Tmd {
        self.store.schema()
    }

    /// Log head (next LSN).
    pub fn wal_position(&self) -> u64 {
        self.store.wal_position()
    }

    /// A tailer over this node's log.
    pub fn tailer(&self) -> WalTailer {
        WalTailer::new(self.store.dir())
    }

    /// Journals one record — refused once fenced.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] after fencing; otherwise as
    /// [`DurableTmd::apply`].
    pub fn apply(&mut self, record: WalRecord) -> Result<u64, ReplicaError> {
        if self.fenced {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        Ok(self.store.apply(record)?)
    }

    /// Checkpoints the store — refused once fenced.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] after fencing; otherwise as
    /// [`DurableTmd::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<(), ReplicaError> {
        if self.fenced {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        self.store.checkpoint()?;
        Ok(())
    }

    /// Runs the store's policy-gated checkpoint check — the periodic
    /// driver behind `CheckpointPolicy::max_tail_age_ms`. A fenced
    /// node's store is frozen, so the check is skipped (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::maybe_checkpoint`].
    pub fn maybe_checkpoint(
        &mut self,
    ) -> Result<Option<mvolap_durable::CheckpointId>, ReplicaError> {
        if self.fenced {
            return Ok(None);
        }
        Ok(self.store.maybe_checkpoint()?)
    }

    /// Fences this node at `epoch`: every further write is refused with
    /// [`ReplicaError::Fenced`]. A [`crate::net::ReplicaServer`] calls
    /// this when a request proves a newer primary exists.
    pub fn fence(&mut self, epoch: u64) {
        self.fenced = true;
        self.epoch = epoch;
    }
}
