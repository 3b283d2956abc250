//! Error types for deal specification and protocol execution.

use std::fmt;

use xchain_bft::log::CbcError;
use xchain_sim::error::ChainError;

/// Errors raised while specifying or executing a cross-chain deal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DealError {
    /// The deal specification is malformed (empty plist, unknown parties,
    /// unorderable transfers, …).
    InvalidSpec(String),
    /// The deal digraph is not strongly connected (free riders present).
    NotWellFormed,
    /// An underlying chain/contract operation failed in a way the protocol
    /// engine could not tolerate.
    Chain(ChainError),
    /// A CBC operation failed in a way the protocol engine could not tolerate.
    Cbc(CbcError),
    /// The engine was configured inconsistently (e.g. missing party config).
    Config(String),
    /// Code executing a deal panicked; the panic's message.
    Panic(String),
    /// One cell of a sweep failed. `cell` names it (its specification,
    /// engine, network and adversary labels and its seed); `error` is the
    /// failure itself.
    Cell {
        /// Which cell failed.
        cell: String,
        /// What went wrong in it.
        error: Box<DealError>,
    },
}

impl fmt::Display for DealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DealError::InvalidSpec(msg) => write!(f, "invalid deal specification: {msg}"),
            DealError::NotWellFormed => write!(f, "deal digraph is not strongly connected"),
            DealError::Chain(e) => write!(f, "chain error: {e}"),
            DealError::Cbc(e) => write!(f, "CBC error: {e}"),
            DealError::Config(msg) => write!(f, "configuration error: {msg}"),
            DealError::Panic(msg) => write!(f, "panicked: {msg}"),
            DealError::Cell { cell, error } => write!(f, "sweep cell {cell}: {error}"),
        }
    }
}

impl std::error::Error for DealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DealError::Cell { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

impl From<ChainError> for DealError {
    fn from(e: ChainError) -> Self {
        DealError::Chain(e)
    }
}

impl From<CbcError> for DealError {
    fn from(e: CbcError) -> Self {
        DealError::Cbc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: DealError = ChainError::BadSignature.into();
        assert!(e.to_string().contains("chain error"));
        let e: DealError = CbcError::QuorumUnavailable.into();
        assert!(e.to_string().contains("CBC"));
        assert!(DealError::NotWellFormed
            .to_string()
            .contains("strongly connected"));
        let e = DealError::Cell {
            cell: "spec \"broker\", seed 3".into(),
            error: Box::new(DealError::Panic("boom".into())),
        };
        assert_eq!(
            e.to_string(),
            "sweep cell spec \"broker\", seed 3: panicked: boom"
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
