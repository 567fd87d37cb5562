//! Shared command-line plumbing for the standalone server and client
//! binaries. Both sides must construct the *identical* world (same seed and
//! parameters), so the world flags are parsed by one function.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_net::time::SimDuration;
use seve_world::worlds::manhattan::{ManhattanConfig, ManhattanWorld, SpawnPattern};
use std::sync::Arc;

/// Options shared by `seve-server` and `seve-client`.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Number of participating clients.
    pub clients: usize,
    /// Wall count of the Manhattan world.
    pub walls: usize,
    /// World seed (must match between server and clients).
    pub seed: u64,
    /// Protocol mode.
    pub mode: ServerMode,
    /// Assumed round-trip time, milliseconds (drives ω·RTT cycles).
    pub rtt_ms: u64,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            clients: 4,
            walls: 500,
            seed: 7,
            mode: ServerMode::InfoBound,
            rtt_ms: 40,
            rest: Vec::new(),
        }
    }
}

/// Parse `--clients N --walls N --seed N --mode basic|incomplete|
/// first-bound|info-bound --rtt MS` plus positionals from `args`.
pub fn parse_common(args: impl Iterator<Item = String>) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts::default();
    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--clients" => {
                opts.clients = grab("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--walls" => {
                opts.walls = grab("--walls")?
                    .parse()
                    .map_err(|e| format!("--walls: {e}"))?
            }
            "--seed" => {
                opts.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--rtt" => opts.rtt_ms = grab("--rtt")?.parse().map_err(|e| format!("--rtt: {e}"))?,
            "--mode" => {
                opts.mode = match grab("--mode")?.as_str() {
                    "basic" => ServerMode::Basic,
                    "incomplete" => ServerMode::Incomplete,
                    "first-bound" => ServerMode::FirstBound,
                    "info-bound" => ServerMode::InfoBound,
                    other => return Err(format!("unknown mode '{other}'")),
                }
            }
            other => opts.rest.push(other.to_string()),
        }
    }
    Ok(opts)
}

/// Build the world both sides agree on.
pub fn build_world(opts: &CommonOpts) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: opts.clients,
        walls: opts.walls,
        width: 400.0,
        height: 400.0,
        spawn: SpawnPattern::Clustered {
            cluster_size: 6,
            cluster_radius: 14.0,
        },
        seed: opts.seed,
        ..ManhattanConfig::default()
    }))
}

/// Build the protocol configuration both sides agree on.
pub fn build_protocol(opts: &CommonOpts) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::with_mode(opts.mode);
    cfg.rtt = SimDuration::from_ms(opts.rtt_ms);
    cfg.tick = SimDuration::from_ms((opts.rtt_ms / 4).max(2));
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CommonOpts, String> {
        parse_common(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.clients, 4);
        let o = parse(&[
            "--clients",
            "12",
            "--mode",
            "incomplete",
            "--rtt",
            "100",
            "extra",
        ])
        .unwrap();
        assert_eq!(o.clients, 12);
        assert_eq!(o.mode, ServerMode::Incomplete);
        assert_eq!(o.rtt_ms, 100);
        assert_eq!(o.rest, vec!["extra".to_string()]);
        let cfg = build_protocol(&o);
        assert_eq!(cfg.mode, ServerMode::Incomplete);
        assert_eq!(cfg.rtt, SimDuration::from_ms(100));
    }

    #[test]
    fn bad_values_error() {
        assert!(parse(&["--clients"]).is_err());
        assert!(parse(&["--clients", "x"]).is_err());
        assert!(parse(&["--mode", "zoned"]).is_err());
    }

    #[test]
    fn worlds_built_from_equal_opts_are_identical() {
        use seve_world::GameWorld;
        let o = parse(&["--seed", "99", "--clients", "6"]).unwrap();
        let a = build_world(&o);
        let b = build_world(&o);
        assert_eq!(a.initial_state().digest(), b.initial_state().digest());
    }
}
