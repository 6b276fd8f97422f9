//! A trainable byte-pair-encoding tokenizer (paper §II-A: inputs to LLMs
//! are tokens from a byte pair encoding, Gage 1994).
//!
//! Training learns greedy merges of the most frequent adjacent pair;
//! encoding applies merges in learned order. Byte-level base vocabulary
//! guarantees any input round-trips.

use std::collections::HashMap;

/// A token id.
pub type TokenId = u32;

/// A trained BPE vocabulary.
#[derive(Debug, Clone)]
pub struct Bpe {
    /// Learned merges in order: (left, right) -> new token.
    merges: Vec<(TokenId, TokenId)>,
    /// Token id of each merge result: `256 + index`.
    merge_lookup: HashMap<(TokenId, TokenId), TokenId>,
    /// Byte sequences for every token id.
    token_bytes: Vec<Vec<u8>>,
}

impl Bpe {
    /// Trains a tokenizer on `text`, learning up to `merges` merges.
    ///
    /// Merges stop early when no pair repeats. A merge is only learned from
    /// pairs occurring at least twice.
    pub fn train(text: &str, merges: usize) -> Self {
        let mut token_bytes: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
        let mut seq: Vec<TokenId> = text.bytes().map(|b| b as TokenId).collect();
        let mut learned = Vec::new();
        let mut merge_lookup = HashMap::new();
        for _ in 0..merges {
            let mut counts: HashMap<(TokenId, TokenId), usize> = HashMap::new();
            for w in seq.windows(2) {
                *counts.entry((w[0], w[1])).or_insert(0) += 1;
            }
            let Some((&pair, &count)) = counts
                .iter()
                .max_by_key(|(pair, c)| (**c, std::cmp::Reverse(**pair)))
            else {
                break;
            };
            if count < 2 {
                break;
            }
            let new_id = token_bytes.len() as TokenId;
            let mut bytes = token_bytes[pair.0 as usize].clone();
            bytes.extend_from_slice(&token_bytes[pair.1 as usize]);
            token_bytes.push(bytes);
            learned.push(pair);
            merge_lookup.insert(pair, new_id);
            seq = merge_pair(&seq, pair, new_id);
        }
        Bpe {
            merges: learned,
            merge_lookup,
            token_bytes,
        }
    }

    /// Vocabulary size (256 byte tokens + learned merges).
    pub fn vocab_size(&self) -> usize {
        self.token_bytes.len()
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encodes text into token ids by replaying merges in learned order.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut seq: Vec<TokenId> = text.bytes().map(|b| b as TokenId).collect();
        for (i, &pair) in self.merges.iter().enumerate() {
            let new_id = 256 + i as TokenId;
            if seq.len() < 2 {
                break;
            }
            seq = merge_pair(&seq, pair, new_id);
        }
        seq
    }

    /// Decodes token ids back to text (lossy UTF-8 for safety).
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &t in tokens {
            if let Some(b) = self.token_bytes.get(t as usize) {
                bytes.extend_from_slice(b);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Compression ratio achieved on `text` (bytes per token).
    pub fn compression(&self, text: &str) -> f64 {
        let toks = self.encode(text);
        if toks.is_empty() {
            return 0.0;
        }
        text.len() as f64 / toks.len() as f64
    }

    /// Looks up the merged token for a pair, if learned.
    pub fn merged(&self, a: TokenId, b: TokenId) -> Option<TokenId> {
        self.merge_lookup.get(&(a, b)).copied()
    }
}

fn merge_pair(seq: &[TokenId], pair: (TokenId, TokenId), new_id: TokenId) -> Vec<TokenId> {
    let mut out = Vec::with_capacity(seq.len());
    let mut i = 0;
    while i < seq.len() {
        if i + 1 < seq.len() && seq[i] == pair.0 && seq[i + 1] == pair.1 {
            out.push(new_id);
            i += 2;
        } else {
            out.push(seq[i]);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "always @(posedge clk) begin q <= q + 1; end\n\
                          always @(posedge clk) begin r <= r + 1; end\n";

    #[test]
    fn round_trip_exact() {
        let bpe = Bpe::train(SAMPLE, 50);
        let toks = bpe.encode(SAMPLE);
        assert_eq!(bpe.decode(&toks), SAMPLE);
    }

    #[test]
    fn round_trip_unseen_text() {
        let bpe = Bpe::train(SAMPLE, 50);
        let other = "module unseen(input x); assign y = ~x; endmodule";
        assert_eq!(bpe.decode(&bpe.encode(other)), other);
    }

    #[test]
    fn merges_compress() {
        let bpe = Bpe::train(&SAMPLE.repeat(20), 100);
        assert!(bpe.merge_count() > 10);
        let ratio = bpe.compression(SAMPLE);
        assert!(ratio > 1.5, "expected compression, got {ratio}");
    }

    #[test]
    fn zero_merges_is_byte_level() {
        let bpe = Bpe::train(SAMPLE, 0);
        assert_eq!(bpe.vocab_size(), 256);
        assert_eq!(bpe.encode("abc"), vec![97, 98, 99]);
    }

    #[test]
    fn merge_stops_on_unique_pairs() {
        let bpe = Bpe::train("abcdefg", 1000);
        // No pair repeats, so nothing merges.
        assert_eq!(bpe.merge_count(), 0);
    }

    #[test]
    fn more_merges_never_hurt_compression() {
        let text = SAMPLE.repeat(10);
        let small = Bpe::train(&text, 20).compression(&text);
        let large = Bpe::train(&text, 200).compression(&text);
        assert!(large >= small);
    }

    #[test]
    fn training_is_deterministic() {
        let a = Bpe::train(SAMPLE, 64).encode(SAMPLE);
        let b = Bpe::train(SAMPLE, 64).encode(SAMPLE);
        assert_eq!(a, b);
    }

    #[test]
    fn non_ascii_round_trips() {
        let text = "// ° signal für τ\nmodule m; endmodule";
        let bpe = Bpe::train(text, 10);
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
    }
}
