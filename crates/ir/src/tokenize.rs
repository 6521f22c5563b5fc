//! Tokenization of object attribute text into candidate terms.
//!
//! The paper treats each data-graph node as a document whose text is the
//! concatenation of its attribute values (Section 2). Tokenization is the
//! first stage of the analysis pipeline: lowercase, split on any
//! non-alphanumeric character, drop tokens outside a length window.

/// Tokenizer configuration.
#[derive(Clone, Debug)]
pub struct Tokenizer {
    /// Minimum token length (shorter tokens are dropped). Default 1.
    pub min_len: usize,
    /// Maximum token length (longer tokens are truncated). Default 64.
    pub max_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self {
            min_len: 1,
            max_len: 64,
        }
    }
}

impl Tokenizer {
    /// Splits `text` into lowercase alphanumeric tokens.
    pub fn tokenize<'a>(&'a self, text: &'a str) -> impl Iterator<Item = String> + 'a {
        let mut tokens = Vec::new();
        self.for_each_token(text, &mut String::new(), |t| tokens.push(t.to_owned()));
        tokens.into_iter()
    }

    /// Calls `f` with each token of `text`, lowercased into `buf`, so a
    /// caller that reuses `buf` allocates nothing per token. ASCII tokens
    /// are lowercased in place; any other token goes through
    /// `str::to_lowercase`, which knows the context rules (a final `Σ`)
    /// and the mappings that change byte length (`İ`).
    pub(crate) fn for_each_token(&self, text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        for t in text.split(|c: char| !c.is_alphanumeric()) {
            if t.len() < self.min_len || t.is_empty() {
                continue;
            }
            buf.clear();
            if t.is_ascii() {
                buf.push_str(t);
                buf.make_ascii_lowercase();
            } else {
                buf.push_str(&t.to_lowercase());
            }
            if buf.len() > self.max_len {
                buf.truncate(
                    buf.char_indices()
                        .map(|(i, _)| i)
                        .take_while(|&i| i <= self.max_len)
                        .last()
                        .unwrap_or(0),
                );
            }
            f(buf);
        }
    }

    /// Tokenizes into an owned vector.
    pub fn tokenize_vec(&self, text: &str) -> Vec<String> {
        self.tokenize(text).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize_vec("Data Cube: A Relational Aggregation Operator"),
            vec!["data", "cube", "a", "relational", "aggregation", "operator"]
        );
    }

    #[test]
    fn keeps_digits() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize_vec("ICDE 1997"), vec!["icde", "1997"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        let t = Tokenizer::default();
        assert!(t.tokenize_vec("").is_empty());
        assert!(t.tokenize_vec("--- ,,, !!!").is_empty());
    }

    #[test]
    fn min_len_filters_short_tokens() {
        let t = Tokenizer {
            min_len: 3,
            ..Tokenizer::default()
        };
        assert_eq!(t.tokenize_vec("a an olap"), vec!["olap"]);
    }

    #[test]
    fn unicode_is_handled() {
        let t = Tokenizer::default();
        let toks = t.tokenize_vec("naïve Gödel");
        assert_eq!(toks, vec!["naïve", "gödel"]);
    }

    #[test]
    fn hyphenated_words_split() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize_vec("group-by"), vec!["group", "by"]);
    }
}
