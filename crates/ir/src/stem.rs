//! Porter stemmer (M. F. Porter, "An algorithm for suffix stripping",
//! Program 14(3), 1980), including the two standard departures from the
//! published paper that Porter's reference implementation adopts
//! (`bli -> ble` in step 2 and the `logi -> log` rule).
//!
//! The stemmer conflates morphological variants ("mining", "mined",
//! "mines" -> "mine") so the inverted index and the content-based
//! reformulation of Section 5.1 treat them as one term. Only ASCII
//! lowercase words are stemmed; anything else is returned unchanged.

/// Stems a single lowercase word. Words shorter than 3 characters or
/// containing non-ASCII-alphabetic characters are returned unchanged.
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_string();
    }
    let mut s = Stemmer {
        b: word.as_bytes().to_vec(),
        k: word.len() - 1,
        j1: 0,
    };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    // The buffer is ASCII throughout.
    // orex::allow(ORX008): the stemmer only ever writes ASCII bytes it
    // read from an ASCII-filtered input word, so the UTF-8 revalidation
    // cannot fail; returning Result here would force every analyzer
    // call site to handle an impossible error.
    String::from_utf8(s.b[..=s.k].to_vec()).expect("stemmer buffer is ASCII")
}

struct Stemmer {
    b: Vec<u8>,
    /// Index of the last character of the current word.
    k: usize,
    /// One past the last character of the current stem (set by `ends`).
    /// Stored as `j + 1` relative to Porter's reference code so that an
    /// empty stem (whole word matched as suffix, Porter's `j = -1`) is
    /// representable without signed arithmetic.
    j1: usize,
}

impl Stemmer {
    /// True if `b[i]` is a consonant.
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// Measures the number of consonant-vowel sequences in the stem
    /// `b[0..j1]`: `[C](VC)^m[V]` has measure `m`.
    fn m(&self) -> usize {
        let mut n = 0;
        let mut i = 0;
        loop {
            if i >= self.j1 {
                return n;
            }
            if !self.cons(i) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            loop {
                if i >= self.j1 {
                    return n;
                }
                if self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            loop {
                if i >= self.j1 {
                    return n;
                }
                if !self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// True if the stem `b[0..j1]` contains a vowel.
    fn vowel_in_stem(&self) -> bool {
        (0..self.j1).any(|i| !self.cons(i))
    }

    /// True if `b[i-1..=i]` is a double consonant.
    fn doublec(&self, i: usize) -> bool {
        i >= 1 && self.b[i] == self.b[i - 1] && self.cons(i)
    }

    /// True if `b[i-2..=i]` is consonant-vowel-consonant and the final
    /// consonant is not `w`, `x` or `y` (the `*o` condition).
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// True if the word ends with `suffix`; sets the stem end `j1` to the
    /// position just before the suffix when it does. A suffix equal to the
    /// whole word is a legal match with an empty stem (`j1 = 0`).
    fn ends(&mut self, suffix: &str) -> bool {
        let s = suffix.as_bytes();
        let len = s.len();
        if len > self.k + 1 {
            return false;
        }
        if &self.b[self.k + 1 - len..=self.k] != s {
            return false;
        }
        self.j1 = self.k + 1 - len;
        true
    }

    /// Replaces the suffix (everything from `j1` on) with `s`.
    ///
    /// Only called after a successful `ends` whose replacement is
    /// non-empty, or under an `m() > 0` guard (non-empty stem), so the
    /// buffer never becomes empty.
    fn setto(&mut self, s: &str) {
        self.b.truncate(self.j1);
        self.b.extend_from_slice(s.as_bytes());
        self.k = self.b.len() - 1;
    }

    /// `setto(s)` when the stem measure is positive.
    fn r(&mut self, s: &str) {
        if self.m() > 0 {
            self.setto(s);
        }
    }

    /// Step 1ab: plurals and -ed / -ing.
    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends("sses") {
                self.k -= 2;
            } else if self.ends("ies") {
                self.setto("i");
            } else if self.k >= 1 && self.b[self.k - 1] != b's' {
                self.k -= 1;
            }
        }
        if self.ends("eed") {
            if self.m() > 0 {
                self.k -= 1;
            }
        } else if (self.ends("ed") || self.ends("ing")) && self.vowel_in_stem() {
            // A vowel in the stem implies the stem is non-empty (j1 >= 1).
            self.k = self.j1 - 1;
            self.b.truncate(self.k + 1);
            if self.ends("at") {
                self.setto("ate");
            } else if self.ends("bl") {
                self.setto("ble");
            } else if self.ends("iz") {
                self.setto("ize");
            } else if self.doublec(self.k) {
                if !matches!(self.b[self.k], b'l' | b's' | b'z') {
                    self.k -= 1;
                    self.b.truncate(self.k + 1);
                }
            } else if self.m() == 1 && self.cvc(self.k) {
                self.j1 = self.k + 1;
                self.setto("e");
            }
        }
        self.b.truncate(self.k + 1);
    }

    /// Step 1c: terminal `y` to `i` when there is another vowel in the stem.
    fn step1c(&mut self) {
        if self.ends("y") && self.vowel_in_stem() {
            self.b[self.k] = b'i';
        }
    }

    /// Step 2: double suffixes to single ones (measure > 0).
    #[expect(
        clippy::collapsible_match,
        clippy::if_same_then_else,
        reason = "the rule table keeps Porter's reference layout: outer dispatch on the \
                  penultimate letter, one `if` chain per group, one rule per branch"
    )]
    fn step2(&mut self) {
        if self.k == 0 {
            return;
        }
        match self.b[self.k - 1] {
            b'a' => {
                if self.ends("ational") {
                    self.r("ate");
                } else if self.ends("tional") {
                    self.r("tion");
                }
            }
            b'c' => {
                if self.ends("enci") {
                    self.r("ence");
                } else if self.ends("anci") {
                    self.r("ance");
                }
            }
            b'e' => {
                if self.ends("izer") {
                    self.r("ize");
                }
            }
            b'l' => {
                if self.ends("bli") {
                    self.r("ble");
                } else if self.ends("alli") {
                    self.r("al");
                } else if self.ends("entli") {
                    self.r("ent");
                } else if self.ends("eli") {
                    self.r("e");
                } else if self.ends("ousli") {
                    self.r("ous");
                }
            }
            b'o' => {
                if self.ends("ization") {
                    self.r("ize");
                } else if self.ends("ation") {
                    self.r("ate");
                } else if self.ends("ator") {
                    self.r("ate");
                }
            }
            b's' => {
                if self.ends("alism") {
                    self.r("al");
                } else if self.ends("iveness") {
                    self.r("ive");
                } else if self.ends("fulness") {
                    self.r("ful");
                } else if self.ends("ousness") {
                    self.r("ous");
                }
            }
            b't' => {
                if self.ends("aliti") {
                    self.r("al");
                } else if self.ends("iviti") {
                    self.r("ive");
                } else if self.ends("biliti") {
                    self.r("ble");
                }
            }
            b'g' => {
                if self.ends("logi") {
                    self.r("log");
                }
            }
            _ => {}
        }
    }

    /// Step 3: -ic-, -full, -ness etc.
    #[expect(
        clippy::collapsible_match,
        reason = "the rule table keeps Porter's reference layout: outer dispatch on the \
                  last letter, one `if` chain per group"
    )]
    fn step3(&mut self) {
        match self.b[self.k] {
            b'e' => {
                if self.ends("icate") {
                    self.r("ic");
                } else if self.ends("ative") {
                    self.r("");
                } else if self.ends("alize") {
                    self.r("al");
                }
            }
            b'i' => {
                if self.ends("iciti") {
                    self.r("ic");
                }
            }
            b'l' => {
                if self.ends("ical") {
                    self.r("ic");
                } else if self.ends("ful") {
                    self.r("");
                }
            }
            b's' => {
                if self.ends("ness") {
                    self.r("");
                }
            }
            _ => {}
        }
    }

    /// Step 4: strip -ant, -ence etc. when measure > 1.
    fn step4(&mut self) {
        if self.k == 0 {
            return;
        }
        let matched = match self.b[self.k - 1] {
            b'a' => self.ends("al"),
            b'c' => self.ends("ance") || self.ends("ence"),
            b'e' => self.ends("er"),
            b'i' => self.ends("ic"),
            b'l' => self.ends("able") || self.ends("ible"),
            b'n' => self.ends("ant") || self.ends("ement") || self.ends("ment") || self.ends("ent"),
            b'o' => {
                (self.ends("ion") && self.j1 > 0 && matches!(self.b[self.j1 - 1], b's' | b't'))
                    || self.ends("ou")
            }
            b's' => self.ends("ism"),
            b't' => self.ends("ate") || self.ends("iti"),
            b'u' => self.ends("ous"),
            b'v' => self.ends("ive"),
            b'z' => self.ends("ize"),
            _ => false,
        };
        if matched && self.m() > 1 {
            // m() > 1 implies a non-empty stem.
            self.k = self.j1 - 1;
            self.b.truncate(self.k + 1);
        }
    }

    /// Step 5: remove a final -e / double l when measure > 1.
    fn step5(&mut self) {
        self.j1 = self.k + 1;
        if self.b[self.k] == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && self.k >= 1 && !self.cvc(self.k - 1)) {
                self.k -= 1;
            }
        }
        if self.b[self.k] == b'l' && self.doublec(self.k) && self.m() > 1 {
            self.k -= 1;
        }
        self.b.truncate(self.k + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pairs: &[(&str, &str)]) {
        for (input, expected) in pairs {
            assert_eq!(stem(input), *expected, "stem({input})");
        }
    }

    #[test]
    fn step1a_plurals() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
        ]);
    }

    #[test]
    fn step1b_ed_ing() {
        check(&[
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step1c_y_to_i() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn step2_double_suffixes() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
        ]);
    }

    #[test]
    fn step3() {
        check(&[
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
        ]);
    }

    #[test]
    fn step4() {
        check(&[
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
        ]);
    }

    #[test]
    fn step5() {
        check(&[
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ]);
    }

    #[test]
    fn domain_terms_conflate() {
        // Terms from the paper's running examples.
        assert_eq!(stem("mining"), stem("mined"));
        assert_eq!(stem("queries"), "queri");
        assert_eq!(stem("indexing"), "index");
        assert_eq!(stem("ranked"), stem("ranking"));
        assert_eq!(stem("databases"), stem("database"));
        assert_eq!(stem("multidimensional"), "multidimension");
    }

    #[test]
    fn short_and_non_ascii_unchanged() {
        assert_eq!(stem("by"), "by");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("naïve"), "naïve");
        assert_eq!(stem("1997"), "1997");
        assert_eq!(stem("OLAP"), "OLAP"); // not lowercase -> unchanged
    }

    #[test]
    fn idempotent_on_typical_vocabulary() {
        for word in [
            "olap",
            "cube",
            "range",
            "modeling",
            "relational",
            "aggregation",
            "optimization",
            "proximity",
            "search",
        ] {
            let once = stem(word);
            let twice = stem(&once);
            // Porter is not idempotent in general, but it is on this
            // vocabulary — a sanity check that stems are stable keys.
            assert_eq!(once, twice, "stem not stable for {word}");
        }
    }
}
