//! The ingest operation vocabulary and its durable line codec.
//!
//! Every mutation the streaming path can make to a [`Corpus`] is one of
//! three [`IngestOp`]s: register a user, append a tweet, delete a tweet.
//! Ops travel in two places — `POST /ingest` request bodies and the
//! write-ahead oplog — and both use the same tab-separated line format,
//! so a replay file *is* an ingest body and vice versa:
//!
//! ```text
//! user\t<handle>\t<display_name>\t<description>\t<followers>\t<0|1>
//! tweet\t<author_handle>\t<text>
//! delete\t<tweet_id>
//! ```
//!
//! Fields are escaped (`\\`, `\t`, `\n`, `\r`) so arbitrary tweet text
//! round-trips through the line format; an escaped field never contains a
//! raw tab or newline, which is what makes `split('\t')` and
//! line-at-a-time framing sound.

use esharp_microblog::{Corpus, TweetId, UserId};

/// One streaming mutation, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOp {
    /// Register a user so later appends can author and mention them.
    AddUser {
        /// Unique handle (`@`-less).
        handle: String,
        /// Display name.
        display_name: String,
        /// Profile description.
        description: String,
        /// Follower count (an RI/MI feature input).
        followers: u64,
        /// Verified badge.
        verified: bool,
    },
    /// Append one tweet to the delta segment.
    Append {
        /// Author handle (must already exist, possibly earlier in the
        /// same batch).
        author: String,
        /// Raw tweet text (tokenized and interned on apply).
        text: String,
    },
    /// Tombstone a tweet (hidden immediately, reclaimed at compaction).
    Delete {
        /// The tweet to hide.
        id: TweetId,
    },
}

/// What applying one op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A new user id.
    User(UserId),
    /// A new (delta-segment) tweet id.
    Tweet(TweetId),
    /// A tombstoned tweet id.
    Deleted(TweetId),
}

fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(field: &str) -> Result<String, String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

impl IngestOp {
    /// Render the op as one line (no trailing newline). The inverse of
    /// [`IngestOp::parse`].
    pub fn render(&self) -> String {
        match self {
            IngestOp::AddUser {
                handle,
                display_name,
                description,
                followers,
                verified,
            } => format!(
                "user\t{}\t{}\t{}\t{}\t{}",
                escape(handle),
                escape(display_name),
                escape(description),
                followers,
                u8::from(*verified)
            ),
            IngestOp::Append { author, text } => {
                format!("tweet\t{}\t{}", escape(author), escape(text))
            }
            IngestOp::Delete { id } => format!("delete\t{id}"),
        }
    }

    /// Parse one line rendered by [`IngestOp::render`].
    pub fn parse(line: &str) -> Result<IngestOp, String> {
        let mut fields = line.split('\t');
        let kind = fields.next().unwrap_or("");
        let rest: Vec<&str> = fields.collect();
        match kind {
            "user" => {
                let [handle, display_name, description, followers, verified] = rest[..] else {
                    return Err(format!("user op expects 5 fields, got {}", rest.len()));
                };
                Ok(IngestOp::AddUser {
                    handle: unescape(handle)?,
                    display_name: unescape(display_name)?,
                    description: unescape(description)?,
                    followers: followers
                        .parse()
                        .map_err(|_| format!("bad follower count {followers:?}"))?,
                    verified: match verified {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad verified flag {other:?}")),
                    },
                })
            }
            "tweet" => {
                let [author, text] = rest[..] else {
                    return Err(format!("tweet op expects 2 fields, got {}", rest.len()));
                };
                Ok(IngestOp::Append {
                    author: unescape(author)?,
                    text: unescape(text)?,
                })
            }
            "delete" => {
                let [id] = rest[..] else {
                    return Err(format!("delete op expects 1 field, got {}", rest.len()));
                };
                Ok(IngestOp::Delete {
                    id: id.parse().map_err(|_| format!("bad tweet id {id:?}"))?,
                })
            }
            other => Err(format!("unknown op kind {other:?}")),
        }
    }

    /// Parse a newline-separated batch (empty lines and `#` comments
    /// skipped) — the `POST /ingest` body and `--replay` file format.
    pub fn parse_batch(text: &str) -> Result<Vec<IngestOp>, String> {
        let mut ops = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            ops.push(IngestOp::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?);
        }
        Ok(ops)
    }

    /// Apply the op to a corpus. Fails without mutating anything (the
    /// underlying `Corpus` mutators validate before touching state).
    pub fn apply(&self, corpus: &mut Corpus) -> Result<Applied, String> {
        match self {
            IngestOp::AddUser {
                handle,
                display_name,
                description,
                followers,
                verified,
            } => corpus
                .add_user(handle, display_name, description, *followers, *verified)
                .map(Applied::User),
            IngestOp::Append { author, text } => {
                corpus.append_tweet(author, text).map(Applied::Tweet)
            }
            IngestOp::Delete { id } => corpus.delete_tweet(*id).map(|()| Applied::Deleted(*id)),
        }
    }
}

/// Validates a batch against a corpus *plus the batch's own earlier ops*
/// — an append may cite a user added two lines up, a delete may target a
/// tweet appended in the same batch. Used by the WAL path to guarantee
/// that once a batch is durably logged, applying it cannot fail.
#[derive(Debug)]
pub struct BatchCheck<'c> {
    corpus: &'c Corpus,
    new_handles: std::collections::HashSet<String>,
    pending_appends: usize,
    pending_deletes: std::collections::HashSet<TweetId>,
}

impl<'c> BatchCheck<'c> {
    /// Start validating a batch against `corpus`.
    pub fn new(corpus: &'c Corpus) -> BatchCheck<'c> {
        BatchCheck {
            corpus,
            new_handles: std::collections::HashSet::new(),
            pending_appends: 0,
            pending_deletes: std::collections::HashSet::new(),
        }
    }

    /// Check the next op of the batch, folding its effects into the
    /// overlay on success.
    pub fn check(&mut self, op: &IngestOp) -> Result<(), String> {
        match op {
            IngestOp::AddUser { handle, .. } => {
                if handle.is_empty() {
                    return Err("user handle must be non-empty".to_string());
                }
                if self.corpus.user_by_handle(handle).is_some()
                    || self.new_handles.contains(handle)
                {
                    return Err(format!("handle {handle:?} already exists"));
                }
                self.new_handles.insert(handle.clone());
                Ok(())
            }
            IngestOp::Append { author, .. } => {
                if self.corpus.user_by_handle(author).is_none()
                    && !self.new_handles.contains(author)
                {
                    return Err(format!("unknown author handle {author:?}"));
                }
                self.pending_appends += 1;
                Ok(())
            }
            IngestOp::Delete { id } => {
                let total = self.corpus.tweet_count() + self.pending_appends;
                if (*id as usize) >= total {
                    return Err(format!("tweet {id} does not exist"));
                }
                if ((*id as usize) < self.corpus.tweet_count() && self.corpus.is_deleted(*id))
                    || self.pending_deletes.contains(id)
                {
                    return Err(format!("tweet {id} is already deleted"));
                }
                self.pending_deletes.insert(*id);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_microblog::{Tweet, User};

    fn corpus() -> Corpus {
        let users = vec![User {
            id: 0,
            handle: "alice".to_string(),
            display_name: "ALICE".to_string(),
            description: String::new(),
            followers: 10,
            verified: false,
            expert_domains: vec![],
            spam: false,
        }];
        let tweets = vec![Tweet::parse(0, 0, "hello world", |_| None)];
        Corpus::new(users, tweets)
    }

    #[test]
    fn ops_round_trip_through_the_line_codec() {
        let ops = vec![
            IngestOp::AddUser {
                handle: "dave".into(),
                display_name: "Dave\tTab".into(),
                description: "line\nbreak \\ slash".into(),
                followers: 42,
                verified: true,
            },
            IngestOp::Append {
                author: "dave".into(),
                text: "multi\nline\ttweet\r\\".into(),
            },
            IngestOp::Delete { id: 7 },
        ];
        for op in &ops {
            let line = op.render();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(&IngestOp::parse(&line).unwrap(), op);
        }
        let batch: String = ops.iter().map(|o| o.render() + "\n").collect();
        let with_noise = format!("# comment\n\n{batch}");
        assert_eq!(IngestOp::parse_batch(&with_noise).unwrap(), ops);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "frobnicate\tx",
            "user\tonly\ttwo",
            "user\ta\tb\tc\tnotanumber\t0",
            "user\ta\tb\tc\t1\t2",
            "tweet\tonlyauthor",
            "delete\tnotanid",
            "tweet\ta\tbad\\escape\\q",
        ] {
            assert!(IngestOp::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn batch_check_tracks_intra_batch_state() {
        let c = corpus();
        let mut check = BatchCheck::new(&c);
        // Append citing a user added earlier in the same batch.
        check
            .check(&IngestOp::AddUser {
                handle: "bob".into(),
                display_name: String::new(),
                description: String::new(),
                followers: 0,
                verified: false,
            })
            .unwrap();
        check
            .check(&IngestOp::Append {
                author: "bob".into(),
                text: "hi".into(),
            })
            .unwrap();
        // Delete of the tweet appended above (id 1 = len 1 + 0 pending).
        check.check(&IngestOp::Delete { id: 1 }).unwrap();
        // Double delete, duplicate handle, unknown author, bad id.
        assert!(check.check(&IngestOp::Delete { id: 1 }).is_err());
        assert!(check.check(&IngestOp::Delete { id: 9 }).is_err());
        assert!(check
            .check(&IngestOp::AddUser {
                handle: "alice".into(),
                display_name: String::new(),
                description: String::new(),
                followers: 0,
                verified: false,
            })
            .is_err());
        assert!(check
            .check(&IngestOp::Append {
                author: "nobody".into(),
                text: "hi".into()
            })
            .is_err());
    }

    #[test]
    fn apply_matches_corpus_semantics() {
        let mut c = corpus();
        let add = IngestOp::AddUser {
            handle: "bob".into(),
            display_name: "B".into(),
            description: String::new(),
            followers: 1,
            verified: false,
        };
        assert_eq!(add.apply(&mut c).unwrap(), Applied::User(1));
        let tweet = IngestOp::Append {
            author: "bob".into(),
            text: "hello again".into(),
        };
        assert_eq!(tweet.apply(&mut c).unwrap(), Applied::Tweet(1));
        assert_eq!(
            IngestOp::Delete { id: 1 }.apply(&mut c).unwrap(),
            Applied::Deleted(1)
        );
        assert!(IngestOp::Delete { id: 1 }.apply(&mut c).is_err());
    }
}
