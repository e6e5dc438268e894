//! The job state machine.
//!
//! A job's spec is a [`div_bench::spec::CampaignSpec`] (re-exported as
//! [`crate::JobSpec`]): the same type that parses `divlab`'s campaign
//! flags parses a submission body and a journalled `submit` op.

use std::fmt;

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued ──schedule──▶ Running ──complete──▶ Completed
///    │                    │  └────fail─────▶ Failed
///    └──────cancel────────┴────cancel──────▶ Cancelled
/// ```
///
/// `Completed`, `Cancelled` and `Failed` are terminal.  A `Running` job
/// found in the oplog at startup (a crash) is re-queued and resumed from
/// its journalled trial outcomes; a `Running` job with a journalled
/// cancel intent is recovered directly to `Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the fair queue.
    Queued,
    /// Claimed by a worker (or was, before a crash).
    Running,
    /// Every trial has an outcome; the report is final.
    Completed,
    /// Cancelled by the client; the partial report is final.
    Cancelled,
    /// The job could not run: its spec did not build into a campaign, or
    /// the campaign driver refused it; see the job's error message.
    Failed,
}

impl JobState {
    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_classify_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert_eq!(JobState::Running.to_string(), "running");
    }
}
