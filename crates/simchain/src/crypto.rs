//! Simulated cryptography: hashing, signatures, and the timelock protocol's
//! *path signatures*.
//!
//! The paper assumes "each party has a public key and a private key, and any
//! party's public key is known to all" (Section 3). For the reproduction we do
//! not need cryptographic strength — we need (a) contracts to be able to
//! *verify* signatures at a fixed gas cost (3000 gas per verification,
//! Section 7.1), and (b) deviating parties to be unable to forge compliant
//! parties' votes. Both are preserved by this deterministic keyed-hash scheme:
//! only the holder of a [`KeyPair`] can call [`KeyPair::sign`], and the
//! simulation only hands each party its own key pair. See DESIGN.md §1 for the
//! substitution rationale.

use std::fmt;

use crate::ids::PartyId;

/// A 64-bit hash value. All on-chain hashing in the simulator uses this type
/// (deal identifiers, startDeal hashes, HTLC hashlocks, block hashes, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash(pub u64);

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

/// A streaming FNV-1a hasher over bytes and little-endian 64-bit words,
/// finalized with a splitmix64 avalanche so that nearby inputs produce
/// well-spread outputs. Deterministic across runs and platforms.
///
/// This is the allocation-free engine behind [`hash_bytes`] and
/// [`hash_words`]: callers that used to assemble a scratch `Vec<u8>` per hash
/// (word hashing, block hashing, HTLC hashlocks, signature digests) now feed
/// the hasher directly. Feeding `write_u64(w)` is exactly equivalent to
/// feeding `write(&w.to_le_bytes())`, so streaming and buffered callers
/// produce identical hashes.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl FnvHasher {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        FnvHasher(Self::OFFSET)
    }

    /// Feeds one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Feeds a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds one 64-bit word as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Builder-style [`FnvHasher::write_u64`], for one-liner hash chains.
    #[inline]
    #[must_use]
    pub fn chain_u64(mut self, w: u64) -> Self {
        self.write_u64(w);
        self
    }

    /// Finalizes the stream into a well-spread [`Hash`].
    #[inline]
    pub fn finish(&self) -> Hash {
        Hash(splitmix64(self.0))
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over a byte slice (see [`FnvHasher`]). Deterministic across runs.
pub fn hash_bytes(bytes: &[u8]) -> Hash {
    let mut h = FnvHasher::new();
    h.write(bytes);
    h.finish()
}

/// Hashes a sequence of 64-bit words (convenient for composing ids) without
/// materializing their byte encoding; equal to [`hash_bytes`] over the
/// words' concatenated little-endian bytes.
pub fn hash_words(words: &[u64]) -> Hash {
    let mut h = FnvHasher::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The splitmix64 finalizer; also used to derive per-party key material.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A public key. Displayed and compared by value; knowing a public key does
/// not let simulation code produce signatures (only [`KeyPair::sign`] does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(pub u64);

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk:{:016x}", self.0)
    }
}

/// A signing key pair. The secret component is private to this module; the
/// only way to obtain a signature is through [`KeyPair::sign`], which is the
/// structural unforgeability guarantee the protocols rely on.
#[derive(Debug, Clone)]
pub struct KeyPair {
    public: PublicKey,
    secret: u64,
}

impl KeyPair {
    /// Derives the key pair for a party from a deterministic seed. The world
    /// creates exactly one key pair per party and hands it only to that party.
    pub fn derive(party: PartyId, world_seed: u64) -> Self {
        let secret = splitmix64(world_seed ^ splitmix64(0x5eed_0000_0000_0000 ^ party.0 as u64));
        let public = PublicKey(splitmix64(secret ^ 0x7ab1_1c0d_e5a1_7000));
        KeyPair { public, secret }
    }

    /// Returns the public half of the pair.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let digest = hash_bytes(message);
        let tag = splitmix64(self.secret ^ digest.0);
        Signature {
            signer: self.public,
            tag,
        }
    }

    /// Signs a message expressed as 64-bit words.
    pub fn sign_words(&self, words: &[u64]) -> Signature {
        self.sign_digest(hash_words(words))
    }

    /// Signs a pre-computed digest. This is the streaming counterpart of
    /// [`KeyPair::sign_words`]: callers that already fed the message through a
    /// [`FnvHasher`] (certificate issuance over log records) sign the digest
    /// directly instead of materializing a words `Vec` per signature.
    pub fn sign_digest(&self, digest: Hash) -> Signature {
        let tag = splitmix64(self.secret ^ digest.0);
        Signature {
            signer: self.public,
            tag,
        }
    }
}

/// A signature over a message, attributable to a public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The claimed signer.
    pub signer: PublicKey,
    tag: u64,
}

impl Signature {
    /// Verifies the signature against a message and an expected signer.
    ///
    /// Verification recomputes the expected tag from the signer's public key.
    /// The secret is re-derived internally from the registered key material;
    /// see [`verify_with_secret_oracle`]. Contract code never calls this
    /// directly — it goes through the gas-metered
    /// [`crate::contract::CallCtx::verify_signature`].
    pub fn verify(
        &self,
        expected_signer: PublicKey,
        message: &[u8],
        oracle: &KeyDirectory,
    ) -> bool {
        if self.signer != expected_signer {
            return false;
        }
        oracle.verify(self, message)
    }
}

/// A directory mapping parties to their public keys, plus the verification
/// oracle. Every blockchain can read it ("any party's public key is known to
/// all"); the chains of one world share a single copy. The directory stores
/// enough material to *verify* signatures but is never used by simulation
/// code to *create* them.
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    entries: Vec<(PublicKey, u64)>,
    parties: Vec<(PartyId, PublicKey)>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a key pair's verification material and its owning party.
    pub fn register(&mut self, party: PartyId, kp: &KeyPair) {
        if !self.entries.iter().any(|(pk, _)| *pk == kp.public) {
            self.entries.push((kp.public, kp.secret));
        }
        if !self.parties.iter().any(|(p, _)| *p == party) {
            self.parties.push((party, kp.public));
        }
    }

    /// Makes room for `additional` more registrations, so registering a
    /// known number of keys grows each table at most once.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.parties.reserve(additional);
    }

    /// A copy of the directory with room for `additional` more
    /// registrations: one allocation per table, where a clone followed by
    /// [`KeyDirectory::reserve`] would allocate twice.
    pub fn copy_with_room(&self, additional: usize) -> KeyDirectory {
        let mut entries = Vec::with_capacity(self.entries.len() + additional);
        entries.extend_from_slice(&self.entries);
        let mut parties = Vec::with_capacity(self.parties.len() + additional);
        parties.extend_from_slice(&self.parties);
        KeyDirectory { entries, parties }
    }

    /// Looks up the public key registered for a party.
    pub fn public_key_of(&self, party: PartyId) -> Option<PublicKey> {
        self.parties
            .iter()
            .find(|(p, _)| *p == party)
            .map(|(_, pk)| *pk)
    }

    /// Looks up which party registered a public key.
    pub fn party_of(&self, pk: PublicKey) -> Option<PartyId> {
        self.parties.iter().find(|(_, k)| *k == pk).map(|(p, _)| *p)
    }

    /// Verifies a signature over a message. Returns false for unknown signers.
    pub fn verify(&self, sig: &Signature, message: &[u8]) -> bool {
        self.verify_digest(sig, hash_bytes(message))
    }

    /// Verifies a signature over a message expressed as 64-bit words, without
    /// materializing the byte encoding.
    pub fn verify_words(&self, sig: &Signature, words: &[u64]) -> bool {
        self.verify_digest(sig, hash_words(words))
    }

    /// Verifies a signature over a pre-computed message digest: the single
    /// tag check behind both message encodings, and the path for callers
    /// that check several signatures over one message.
    pub(crate) fn verify_digest(&self, sig: &Signature, digest: Hash) -> bool {
        let Some((_, secret)) = self.entries.iter().find(|(pk, _)| *pk == sig.signer) else {
            return false;
        };
        sig.tag == splitmix64(secret ^ digest.0)
    }

    /// Number of registered parties.
    pub fn len(&self) -> usize {
        self.parties.len()
    }

    /// True if no parties are registered.
    pub fn is_empty(&self) -> bool {
        self.parties.is_empty()
    }
}

/// A *path signature* (Section 5): a commit vote from `voter`, forwarded along
/// a chain of parties, each of which signed the (deal, voter) message in turn.
/// A contract accepts the vote only if it arrives within `|p| · ∆` of the
/// commit-phase start, where `|p|` is the number of distinct signatures.
///
/// This is the owned form, for tests, benches and one-off votes; contracts
/// take the borrowed [`PathSig`] view ([`PathSignature::view`]), which a
/// deal engine can also cut out of one flat arena holding every path of the
/// deal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSignature {
    /// The party whose commit vote is being conveyed.
    pub voter: PartyId,
    /// The forwarding path: the first element is the voter's own signature,
    /// each subsequent element is the signature of a party that forwarded it.
    pub path: Vec<(PartyId, Signature)>,
}

impl PathSignature {
    /// Creates a direct (unforwarded) vote: the voter signs the message itself.
    pub fn direct(voter: PartyId, kp: &KeyPair, message: &[u64]) -> Self {
        PathSignature {
            voter,
            path: vec![(voter, kp.sign_words(message))],
        }
    }

    /// Extends the path by one forwarding hop: `forwarder` signs the same
    /// message and appends its signature. The new path is allocated once, at
    /// its final length.
    pub fn forwarded_by(&self, forwarder: PartyId, kp: &KeyPair, message: &[u64]) -> Self {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(&self.path);
        path.push((forwarder, kp.sign_words(message)));
        PathSignature {
            voter: self.voter,
            path,
        }
    }

    /// The borrowed view contracts verify.
    pub fn view(&self) -> PathSig<'_> {
        PathSig {
            voter: self.voter,
            path: &self.path,
        }
    }

    /// The path length `|p|`: the number of signatures on the vote.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True if the path carries no signatures (never produced by the protocol,
    /// but contracts must reject it).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// The parties that signed, in signing order.
    pub fn signers(&self) -> impl ExactSizeIterator<Item = PartyId> + '_ {
        self.view().signers()
    }

    /// True if all signing parties are distinct (see [`PathSig::signers_unique`]).
    pub fn signers_unique(&self) -> bool {
        self.view().signers_unique()
    }
}

/// A borrowed path signature: the voter and the signatures on its vote, in
/// signing order. `Copy`, so an engine hands the same view to every chain it
/// submits the vote to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSig<'a> {
    /// The party whose commit vote is being conveyed.
    pub voter: PartyId,
    /// The forwarding path, the voter's own signature first.
    pub path: &'a [(PartyId, Signature)],
}

impl<'a> PathSig<'a> {
    /// The path length `|p|`: the number of signatures on the vote.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True if the path carries no signatures.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// The parties that signed, in signing order.
    pub fn signers(&self) -> impl ExactSizeIterator<Item = PartyId> + 'a {
        self.path.iter().map(|(p, _)| *p)
    }

    /// True if all signing parties are distinct (a contract requirement,
    /// Figure 5 line 9). Paths are at most one signature per party, so the
    /// pairwise scan beats allocating a set.
    pub fn signers_unique(&self) -> bool {
        self.path
            .iter()
            .enumerate()
            .all(|(i, (p, _))| self.path[..i].iter().all(|(q, _)| q != p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir_with(parties: &[PartyId]) -> (KeyDirectory, Vec<KeyPair>) {
        let mut dir = KeyDirectory::new();
        let mut kps = Vec::new();
        for &p in parties {
            let kp = KeyPair::derive(p, 42);
            dir.register(p, &kp);
            kps.push(kp);
        }
        (dir, kps)
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_bytes(b"alice"), hash_bytes(b"alice"));
        assert_ne!(hash_bytes(b"alice"), hash_bytes(b"alicf"));
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn streaming_hasher_matches_buffered_hashing() {
        let words = [1u64, 99, u64::MAX, 0];
        assert_eq!(hash_words(&words), hash_bytes(&words_bytes(&words)));
        let mut h = FnvHasher::new();
        h.write(&words_bytes(&words));
        assert_eq!(h.finish(), hash_words(&words));
        assert_eq!(
            FnvHasher::new().chain_u64(7).chain_u64(8).finish(),
            hash_words(&[7, 8])
        );
        assert_eq!(FnvHasher::default().finish(), hash_bytes(&[]));
    }

    #[test]
    fn sign_and_verify_roundtrip() {
        let (dir, kps) = dir_with(&[PartyId(0), PartyId(1)]);
        let sig = kps[0].sign(b"commit deal-7");
        assert!(dir.verify(&sig, b"commit deal-7"));
        assert!(!dir.verify(&sig, b"commit deal-8"));
    }

    #[test]
    fn verification_rejects_wrong_signer() {
        let (dir, kps) = dir_with(&[PartyId(0), PartyId(1)]);
        let sig = kps[0].sign(b"msg");
        assert!(!sig.verify(kps[1].public(), b"msg", &dir));
        assert!(sig.verify(kps[0].public(), b"msg", &dir));
    }

    #[test]
    fn unknown_signer_fails() {
        let (dir, _) = dir_with(&[PartyId(0)]);
        let stranger = KeyPair::derive(PartyId(9), 4242);
        let sig = stranger.sign(b"msg");
        assert!(!dir.verify(&sig, b"msg"));
    }

    #[test]
    fn directory_lookup() {
        let (dir, kps) = dir_with(&[PartyId(3), PartyId(5)]);
        assert_eq!(dir.public_key_of(PartyId(3)), Some(kps[0].public()));
        assert_eq!(dir.party_of(kps[1].public()), Some(PartyId(5)));
        assert_eq!(dir.public_key_of(PartyId(99)), None);
        assert_eq!(dir.len(), 2);
        assert!(!dir.is_empty());
    }

    #[test]
    fn path_signature_grows_by_forwarding() {
        let (dir, kps) = dir_with(&[PartyId(0), PartyId(1), PartyId(2)]);
        let msg = [7u64, 0]; // (deal id, voter)
        let direct = PathSignature::direct(PartyId(0), &kps[0], &msg);
        assert_eq!(direct.len(), 1);
        let fwd = direct.forwarded_by(PartyId(1), &kps[1], &msg);
        let fwd2 = fwd.forwarded_by(PartyId(2), &kps[2], &msg);
        assert_eq!(fwd2.len(), 3);
        assert_eq!(fwd2.voter, PartyId(0));
        assert!(fwd2.signers().eq([PartyId(0), PartyId(1), PartyId(2)]));
        assert!(fwd2.signers_unique());
        for (p, sig) in &fwd2.path {
            let pk = dir.public_key_of(*p).unwrap();
            assert!(sig.verify(pk, &words_bytes(&msg), &dir));
        }
    }

    fn words_bytes(words: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn duplicate_signers_detected() {
        let (_, kps) = dir_with(&[PartyId(0), PartyId(1)]);
        let msg = [1u64];
        let p = PathSignature::direct(PartyId(0), &kps[0], &msg)
            .forwarded_by(PartyId(1), &kps[1], &msg)
            .forwarded_by(PartyId(0), &kps[0], &msg);
        assert!(!p.signers_unique());
    }

    #[test]
    fn signers_unique_handles_empty_paths_and_non_adjacent_duplicates() {
        let (_, kps) = dir_with(&[PartyId(0), PartyId(1), PartyId(2)]);
        let msg = [1u64];
        let empty = PathSignature {
            voter: PartyId(0),
            path: Vec::new(),
        };
        assert!(empty.signers_unique());
        assert_eq!(empty.signers().len(), 0);
        // 0 → 1 → 2 → 1: the repeat is two hops away from its first use.
        let p = PathSignature::direct(PartyId(0), &kps[0], &msg)
            .forwarded_by(PartyId(1), &kps[1], &msg)
            .forwarded_by(PartyId(2), &kps[2], &msg)
            .forwarded_by(PartyId(1), &kps[1], &msg);
        assert!(!p.signers_unique());
        let prefix = PathSignature {
            voter: PartyId(0),
            path: p.path[..3].to_vec(),
        };
        assert!(prefix.signers_unique());
    }

    #[test]
    fn forwarding_keeps_signing_order_and_the_original_signatures() {
        let (_, kps) = dir_with(&[PartyId(0), PartyId(1), PartyId(2)]);
        let msg = [3u64, 4];
        let direct = PathSignature::direct(PartyId(2), &kps[2], &msg);
        let once = direct.forwarded_by(PartyId(0), &kps[0], &msg);
        let twice = once.forwarded_by(PartyId(1), &kps[1], &msg);
        assert!(twice.signers().eq([PartyId(2), PartyId(0), PartyId(1)]));
        // Forwarding copies the existing signatures unchanged and leaves the
        // source path alone.
        assert_eq!(twice.path[..2], once.path[..]);
        assert_eq!(once.len(), 2);
        assert_eq!(twice.path.capacity(), 3);
        assert_eq!(twice.path[2].1, kps[1].sign_words(&msg));
    }

    #[test]
    fn distinct_parties_have_distinct_keys() {
        let a = KeyPair::derive(PartyId(0), 1);
        let b = KeyPair::derive(PartyId(1), 1);
        let c = KeyPair::derive(PartyId(0), 2);
        assert_ne!(a.public(), b.public());
        assert_ne!(a.public(), c.public());
    }
}
