//! Core microblog entities: users and tweets.

use serde::{Deserialize, Serialize};

/// Identifier of a user in a corpus.
pub type UserId = u32;
/// Identifier of a tweet in a corpus.
pub type TweetId = u32;
/// Identifier of an interned token (index into the corpus symbol table,
/// see [`crate::SymbolTable`]).
pub type TokenId = u32;

/// A microblog account.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct User {
    /// Identifier (index into the corpus user table).
    pub id: UserId,
    /// Unique handle (lower-case, no sigil), e.g. `ninersgoldrush`.
    pub handle: String,
    /// Display name shown in the Tables 2–7 style output.
    pub display_name: String,
    /// Profile description.
    pub description: String,
    /// Follower count (log-normal in the wild; same here).
    pub followers: u64,
    /// Twitter-style verification flag ("attests the authenticity of a
    /// popular account").
    pub verified: bool,
    /// Ground truth (synthetic corpora only): domains this account is
    /// genuinely expert in. Empty for regular users and spammers.
    pub expert_domains: Vec<u32>,
    /// Ground truth: true for spam/noise accounts.
    pub spam: bool,
}

/// A single micropost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tweet {
    /// Identifier (index into the corpus tweet table). A tweet handed to
    /// a corpus build carries its input position; the corpus then assigns
    /// its own ids, in topic order, and rewrites this field. An id is
    /// stable only within one corpus epoch: a rebuild or a compaction
    /// renumbers every tweet (appends take the next free id and keep it
    /// until then).
    pub id: TweetId,
    /// Author user id.
    pub author: UserId,
    /// Raw text (≤ 140 chars in spirit; the generator keeps posts short).
    /// Tokens are derived from it: the corpus interns them at build time
    /// (see [`crate::Corpus::tweet_tokens`]).
    pub text: String,
    /// Users mentioned in the tweet.
    pub mentions: Vec<UserId>,
    /// When this is a retweet: the original author.
    pub retweet_of: Option<UserId>,
}

impl Tweet {
    /// Build a tweet from raw text, resolving mentions through a handle
    /// lookup. Used both by the generator and by ingestion tests.
    pub fn parse(
        id: TweetId,
        author: UserId,
        text: impl Into<String>,
        resolve_handle: impl Fn(&str) -> Option<UserId>,
    ) -> Tweet {
        let text = text.into();
        let tokens = crate::tokenize::tokenize(&text);
        let mentions: Vec<UserId> = crate::tokenize::mentions(&tokens)
            .into_iter()
            .filter_map(&resolve_handle)
            .collect();
        let retweet_of =
            crate::tokenize::retweeted_handle(&tokens).and_then(&resolve_handle);
        Tweet {
            id,
            author,
            text,
            mentions,
            retweet_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver(handle: &str) -> Option<UserId> {
        match handle {
            "alice" => Some(1),
            "bob" => Some(2),
            _ => None,
        }
    }

    #[test]
    fn parse_resolves_mentions_and_retweets() {
        let t = Tweet::parse(0, 9, "RT @alice: great catch by @bob!", resolver);
        assert_eq!(t.retweet_of, Some(1));
        assert_eq!(t.mentions, vec![1, 2]);
        assert!(crate::tokenize::tokenize(&t.text).contains(&"great".to_string()));
    }

    #[test]
    fn unknown_handles_are_dropped() {
        let t = Tweet::parse(0, 9, "hello @stranger", resolver);
        assert!(t.mentions.is_empty());
        assert_eq!(t.retweet_of, None);
    }
}
