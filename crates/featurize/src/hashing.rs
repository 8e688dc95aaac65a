//! Tokenization and feature hashing for text attributes.

/// The bucket function of the hashing vectorizer: FNV-1a's structure and
/// 64-bit offset basis, but with the multiplier `0x1000_0000_01b3`, not
/// the FNV prime `0x100_0000_01b3`, so it is not FNV-1a. Its values set
/// every text hash bucket, so the multiplier stays as it is.
pub fn bucket_hash(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Splits text into lowercase word tokens on non-alphanumeric boundaries.
///
/// Non-ASCII alphabetic characters are kept (encoding-error corruptions rely
/// on `É` ≠ `E` producing different tokens, as in the paper's example).
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// Produces word-level n-grams for n in `1..=max_n`, joined by a space.
pub fn word_ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for n in 1..=max_n {
        if n > tokens.len() {
            break;
        }
        for window in tokens.windows(n) {
            grams.push(window.join(" "));
        }
    }
    grams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_hash_distinguishes_inputs_and_is_deterministic() {
        assert_eq!(bucket_hash(b"abc"), bucket_hash(b"abc"));
        assert_ne!(bucket_hash(b"abc"), bucket_hash(b"abd"));
        // The empty input hashes to FNV's offset basis.
        assert_eq!(bucket_hash(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn bucket_hash_is_pinned_on_one_byte() {
        // The empty input hashes to the offset basis under any multiplier;
        // one byte pins the multiplier. True FNV-1a gives
        // 0xaf63_dc4c_8601_ec8c here.
        assert_eq!(bucket_hash(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Hello, World!!"),
            vec!["hello".to_string(), "world".to_string()]
        );
    }

    #[test]
    fn tokenize_keeps_digits_and_unicode() {
        assert_eq!(tokenize("h3110 Éclair"), vec!["h3110", "éclair"]);
    }

    #[test]
    fn tokenize_empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ...").is_empty());
    }

    #[test]
    fn ngrams_cover_unigrams_and_bigrams() {
        let toks: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let grams = word_ngrams(&toks, 2);
        assert_eq!(grams, vec!["a", "b", "c", "a b", "b c"]);
    }

    #[test]
    fn ngrams_with_short_input() {
        let toks: Vec<String> = ["solo".to_string()].to_vec();
        assert_eq!(word_ngrams(&toks, 2), vec!["solo"]);
        assert!(word_ngrams(&[], 2).is_empty());
    }
}
