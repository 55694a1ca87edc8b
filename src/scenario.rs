//! A tiny scenario language for the `sfqsim` CLI.
//!
//! One directive per line; `#` starts a comment. Keys are
//! `key=value` pairs. Example:
//!
//! ```text
//! # 1 Mb/s link, SFQ, three flows
//! link rate=1mbps
//! sched sfq
//! flow id=1 weight=200kbps source=cbr rate=200kbps len=500
//! flow id=2 weight=100kbps source=poisson rate=100kbps len=200 seed=7
//! flow id=3 weight=100kbps source=burst count=100 len=1000
//! horizon 10s
//! ```
//!
//! Supported directives:
//! - `link rate=<rate> [fc_delta_bits=<n>]` — server capacity; with
//!   `fc_delta_bits` the link is a Fluctuation Constrained on-off
//!   profile instead of constant-rate.
//! - `sched <sfq|hsfq|scfq|wfq|fqs|vc|drr|edd|fifo|fa>`
//! - `flow id=<n> weight=<rate> source=<cbr|poisson|burst|onoff|vbr>
//!   ...source args...` (`deadline=<dur>` selects the flow's Delay EDD
//!   deadline when `sched edd`)
//! - `horizon <duration>`
//!
//! Rates accept `bps|kbps|mbps` suffixes; durations accept `s|ms|us`.

use crate::prelude::*;
use baselines::{DelayEdd, Drr, Fifo, Fqs, Scfq, VirtualClock, Wfq};
use std::collections::HashMap;

/// A parsed scenario, ready to run.
#[derive(Debug)]
pub struct Scenario {
    /// Server capacity.
    pub link: Rate,
    /// FC burstiness (0 = constant-rate link).
    pub fc_delta_bits: u64,
    /// Discipline name as written.
    pub sched: String,
    /// Flow definitions in file order.
    pub flows: Vec<FlowDef>,
    /// Simulation horizon.
    pub horizon: SimTime,
}

/// One flow directive.
#[derive(Debug, Clone)]
pub struct FlowDef {
    /// Flow id.
    pub id: u32,
    /// Scheduler weight.
    pub weight: Rate,
    /// Source kind + parameters.
    pub source: SourceDef,
    /// Delay EDD deadline (used only by `sched edd`).
    pub deadline: SimDuration,
}

/// Source specification.
#[derive(Debug, Clone)]
pub enum SourceDef {
    /// CBR at `rate` with `len`-byte packets.
    Cbr {
        /// Average rate.
        rate: Rate,
        /// Packet length.
        len: Bytes,
    },
    /// Poisson at `rate` with `len`-byte packets and RNG `seed`.
    Poisson {
        /// Average rate.
        rate: Rate,
        /// Packet length.
        len: Bytes,
        /// RNG seed.
        seed: u64,
    },
    /// `count` packets of `len` bytes at time `at`.
    Burst {
        /// Number of packets.
        count: usize,
        /// Packet length.
        len: Bytes,
        /// Burst instant.
        at: SimTime,
    },
    /// On-off CBR.
    OnOff {
        /// On-period duration.
        on: SimDuration,
        /// Off-period duration.
        off: SimDuration,
        /// Packet spacing during on periods.
        interval: SimDuration,
        /// Packet length.
        len: Bytes,
    },
    /// Synthetic MPEG VBR at `rate` mean.
    Vbr {
        /// Mean rate.
        rate: Rate,
        /// Packet length.
        len: Bytes,
        /// RNG seed.
        seed: u64,
    },
}

/// A scenario parse error with its line number.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

/// Parse `12mbps` / `64kbps` / `800bps`; `None` past `u64::MAX` b/s.
pub fn parse_rate(s: &str) -> Option<Rate> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(v) = lower.strip_suffix("mbps") {
        (v, 1_000_000)
    } else if let Some(v) = lower.strip_suffix("kbps") {
        (v, 1_000)
    } else if let Some(v) = lower.strip_suffix("bps") {
        (v, 1)
    } else {
        return None;
    };
    num.parse::<u64>().ok()?.checked_mul(mult).map(Rate::bps)
}

/// Parse `10s` / `500ms` / `25us`; `None` for a negative duration.
pub fn parse_duration(s: &str) -> Option<SimDuration> {
    let lower = s.to_ascii_lowercase();
    let whole = |v: &str| v.parse::<u64>().ok().map(i128::from);
    if let Some(v) = lower.strip_suffix("ms") {
        return whole(v).map(SimDuration::from_millis);
    }
    if let Some(v) = lower.strip_suffix("us") {
        return whole(v).map(SimDuration::from_micros);
    }
    if let Some(v) = lower.strip_suffix('s') {
        return whole(v).map(SimDuration::from_secs);
    }
    None
}

fn kv_map(parts: &[&str], line: usize) -> Result<HashMap<String, String>, ParseError> {
    let mut map = HashMap::new();
    for p in parts {
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key=value, got `{p}`")))?;
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn get<'m>(
    map: &'m HashMap<String, String>,
    key: &str,
    line: usize,
) -> Result<&'m str, ParseError> {
    map.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| err(line, format!("missing `{key}=`")))
}

/// A `key=<rate>` entry. Every rate in a scenario divides a length
/// (a link's or a flow's transmission time, a tag span, a source's
/// spacing), so zero is refused here rather than by a panic later.
fn rate_of(map: &HashMap<String, String>, key: &str, line: usize) -> Result<Rate, ParseError> {
    match parse_rate(get(map, key, line)?) {
        Some(r) if r.as_bps() > 0 => Ok(r),
        Some(_) => Err(err(line, format!("{key} must be positive"))),
        None => Err(err(line, format!("bad {key}"))),
    }
}

/// A `key=<duration>` entry, positive when `positive` is set.
fn duration_of(
    map: &HashMap<String, String>,
    key: &str,
    line: usize,
    positive: bool,
) -> Result<SimDuration, ParseError> {
    match parse_duration(get(map, key, line)?) {
        Some(d) if positive && d == SimDuration::ZERO => {
            Err(err(line, format!("{key} must be positive")))
        }
        Some(d) => Ok(d),
        None => Err(err(line, format!("bad {key}"))),
    }
}

impl Scenario {
    /// Parse a scenario file's contents.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut link = None;
        let mut fc_delta_bits = 0u64;
        let mut sched = None;
        let mut flows = Vec::new();
        let mut flow_lines = HashMap::new();
        let mut horizon = None;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().expect("non-empty line");
            let rest: Vec<&str> = parts.collect();
            match directive {
                "link" => {
                    let map = kv_map(&rest, line_no)?;
                    link = Some(rate_of(&map, "rate", line_no)?);
                    if let Some(d) = map.get("fc_delta_bits") {
                        fc_delta_bits = d.parse().map_err(|_| err(line_no, "bad fc_delta_bits"))?;
                    }
                }
                "sched" => {
                    let name = rest
                        .first()
                        .ok_or_else(|| err(line_no, "missing discipline"))?;
                    sched = Some(name.to_string());
                }
                "flow" => {
                    let map = kv_map(&rest, line_no)?;
                    let id: u32 = get(&map, "id", line_no)?
                        .parse()
                        .map_err(|_| err(line_no, "bad id"))?;
                    if let Some(first) = flow_lines.insert(id, line_no) {
                        return Err(err(
                            line_no,
                            format!("flow id {id} already defined on line {first}"),
                        ));
                    }
                    let weight = rate_of(&map, "weight", line_no)?;
                    let deadline = match map.get("deadline") {
                        Some(_) => duration_of(&map, "deadline", line_no, false)?,
                        None => SimDuration::from_millis(100),
                    };
                    // At least one byte, and few enough that its bit count
                    // fits a `u64`.
                    let len = || -> Result<Bytes, ParseError> {
                        match get(&map, "len", line_no)?.parse::<u32>() {
                            Ok(0) => Err(err(line_no, "len must be positive")),
                            Ok(n) => Ok(Bytes::new(u64::from(n))),
                            Err(_) => Err(err(line_no, "bad len")),
                        }
                    };
                    let seed = || -> Result<u64, ParseError> {
                        Ok(match map.get("seed") {
                            Some(s) => s.parse().map_err(|_| err(line_no, "bad seed"))?,
                            None => 42 + id as u64,
                        })
                    };
                    let source = match get(&map, "source", line_no)? {
                        "cbr" => SourceDef::Cbr {
                            rate: rate_of(&map, "rate", line_no)?,
                            len: len()?,
                        },
                        "poisson" => SourceDef::Poisson {
                            rate: rate_of(&map, "rate", line_no)?,
                            len: len()?,
                            seed: seed()?,
                        },
                        "burst" => SourceDef::Burst {
                            count: get(&map, "count", line_no)?
                                .parse()
                                .map_err(|_| err(line_no, "bad count"))?,
                            len: len()?,
                            at: SimTime::ZERO
                                + match map.get("at") {
                                    Some(_) => duration_of(&map, "at", line_no, false)?,
                                    None => SimDuration::ZERO,
                                },
                        },
                        "onoff" => SourceDef::OnOff {
                            on: duration_of(&map, "on", line_no, true)?,
                            off: duration_of(&map, "off", line_no, false)?,
                            interval: duration_of(&map, "interval", line_no, true)?,
                            len: len()?,
                        },
                        "vbr" => SourceDef::Vbr {
                            rate: rate_of(&map, "rate", line_no)?,
                            len: len()?,
                            seed: seed()?,
                        },
                        other => return Err(err(line_no, format!("unknown source `{other}`"))),
                    };
                    flows.push(FlowDef {
                        id,
                        weight,
                        source,
                        deadline,
                    });
                }
                "horizon" => {
                    let d = rest
                        .first()
                        .and_then(|s| parse_duration(s))
                        .ok_or_else(|| err(line_no, "bad horizon"))?;
                    horizon = Some(SimTime::ZERO + d);
                }
                other => return Err(err(line_no, format!("unknown directive `{other}`"))),
            }
        }
        Ok(Scenario {
            link: link.ok_or_else(|| err(0, "missing `link` directive"))?,
            fc_delta_bits,
            sched: sched.ok_or_else(|| err(0, "missing `sched` directive"))?,
            flows,
            horizon: horizon.ok_or_else(|| err(0, "missing `horizon` directive"))?,
        })
    }

    /// Build the scheduler named by the scenario.
    pub fn build_scheduler(&self) -> Result<Box<dyn Scheduler>, ParseError> {
        let mut sched: Box<dyn Scheduler> = match self.sched.as_str() {
            "sfq" => Box::new(Sfq::new()),
            "hsfq" => Box::new(HierSfq::new()),
            "scfq" => Box::new(Scfq::new()),
            "wfq" => Box::new(Wfq::new(self.link)),
            "fqs" => Box::new(Fqs::new(self.link)),
            "vc" => Box::new(VirtualClock::new()),
            "drr" => Box::new(Drr::new()),
            "fifo" => Box::new(Fifo::new()),
            "fa" => Box::new(FairAirport::new()),
            "edd" => {
                let mut e = DelayEdd::new();
                for f in &self.flows {
                    e.add_flow_with_deadline(FlowId(f.id), f.weight, f.deadline);
                }
                return Ok(Box::new(e));
            }
            other => return Err(err(0, format!("unknown discipline `{other}`"))),
        };
        for f in &self.flows {
            sched.add_flow(FlowId(f.id), f.weight);
        }
        Ok(sched)
    }

    /// Materialize every flow's arrivals and merge them time-sorted.
    pub fn build_arrivals(&self, pf: &mut PacketFactory) -> Vec<Packet> {
        let mut lists = Vec::new();
        for f in &self.flows {
            let arr = match &f.source {
                SourceDef::Cbr { rate, len } => arrivals_until(
                    CbrSource::with_rate(SimTime::ZERO, *rate, *len),
                    self.horizon,
                ),
                SourceDef::Poisson { rate, len, seed } => arrivals_until(
                    PoissonSource::with_rate(SimTime::ZERO, *rate, *len, SimRng::new(*seed)),
                    self.horizon,
                ),
                SourceDef::Burst { count, len, at } => {
                    arrivals_until(ScriptSource::burst(*at, *count, *len), self.horizon)
                }
                SourceDef::OnOff {
                    on,
                    off,
                    interval,
                    len,
                } => arrivals_until(
                    OnOffSource::new(SimTime::ZERO, *on, *off, *interval, *len),
                    self.horizon,
                ),
                SourceDef::Vbr { rate, len, seed } => arrivals_until(
                    VbrVideoSource::new(SimTime::ZERO, *rate, *len, 30, 0.35, SimRng::new(*seed)),
                    self.horizon,
                ),
            };
            lists.push(to_packets(pf, FlowId(f.id), &arr));
        }
        merge(lists)
    }

    /// Build the server profile (constant or FC on-off).
    pub fn build_profile(&self) -> RateProfile {
        if self.fc_delta_bits == 0 {
            RateProfile::constant(self.link)
        } else {
            servers::fc_on_off(
                servers::FcParams {
                    rate: self.link,
                    delta_bits: self.fc_delta_bits,
                },
                self.horizon,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo
link rate=1mbps
sched sfq
flow id=1 weight=200kbps source=cbr rate=200kbps len=500
flow id=2 weight=100kbps source=poisson rate=100kbps len=200 seed=7
flow id=3 weight=100kbps source=burst count=10 len=1000 at=500ms
horizon 10s
";

    #[test]
    fn parses_sample() {
        let sc = Scenario::parse(SAMPLE).expect("parses");
        assert_eq!(sc.link, Rate::mbps(1));
        assert_eq!(sc.sched, "sfq");
        assert_eq!(sc.flows.len(), 3);
        assert_eq!(sc.horizon, SimTime::from_secs(10));
        match &sc.flows[2].source {
            SourceDef::Burst { count, len, at } => {
                assert_eq!(*count, 10);
                assert_eq!(*len, Bytes::new(1000));
                assert_eq!(*at, SimTime::from_millis(500));
            }
            other => panic!("wrong source: {other:?}"),
        }
    }

    #[test]
    fn units_parse() {
        assert_eq!(parse_rate("64kbps"), Some(Rate::kbps(64)));
        assert_eq!(parse_rate("2mbps"), Some(Rate::mbps(2)));
        assert_eq!(parse_rate("800bps"), Some(Rate::bps(800)));
        assert_eq!(parse_rate("800"), None);
        assert_eq!(parse_duration("10s"), Some(SimDuration::from_secs(10)));
        assert_eq!(parse_duration("250ms"), Some(SimDuration::from_millis(250)));
        assert_eq!(parse_duration("25us"), Some(SimDuration::from_micros(25)));
        assert_eq!(parse_duration("xyz"), None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "link rate=1mbps\nsched sfq\nflow id=1 weight=oops source=cbr rate=1kbps len=10\nhorizon 1s\n";
        let e = Scenario::parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("weight"));
    }

    #[test]
    fn missing_directives_reported() {
        assert!(Scenario::parse("sched sfq\nhorizon 1s\n")
            .unwrap_err()
            .msg
            .contains("link"));
        assert!(Scenario::parse("link rate=1mbps\nhorizon 1s\n")
            .unwrap_err()
            .msg
            .contains("sched"));
    }

    #[test]
    fn unknown_directive_and_source_rejected() {
        assert!(Scenario::parse("frob x=1\n")
            .unwrap_err()
            .msg
            .contains("frob"));
        let bad =
            "link rate=1mbps\nsched sfq\nflow id=1 weight=1kbps source=warp len=1\nhorizon 1s\n";
        assert!(Scenario::parse(bad).unwrap_err().msg.contains("warp"));
    }

    #[test]
    fn inputs_that_would_panic_are_parse_errors() {
        // Each of these panicked, looped or counted a flow twice once past
        // `parse`.
        let rejected = |text: &str| Scenario::parse(&format!("{text}horizon 1s\n")).unwrap_err();
        // A flow line's arguments -> the error on that line, the third.
        for case in [
            "weight=0bps source=burst count=1 len=1 -> weight must be positive",
            "weight=1kbps source=cbr rate=1kbps len=0 -> len must be positive",
            "weight=1kbps source=cbr rate=0bps len=1 -> rate must be positive",
            "weight=1kbps source=poisson rate=0bps len=1 -> rate must be positive",
            "weight=1kbps source=poisson rate=1kbps len=0 -> len must be positive",
            "weight=1kbps source=burst count=1 len=0 -> len must be positive",
            "weight=1kbps source=burst count=1 len=1 at=-1s -> bad at",
            "weight=1kbps source=burst count=1 len=1 deadline=-1s -> bad deadline",
            "weight=1kbps source=vbr rate=0bps len=1 -> rate must be positive",
            "weight=1kbps source=vbr rate=1kbps len=0 -> len must be positive",
            "weight=1kbps source=vbr rate=1kbps len=4294967296 -> bad len",
            "weight=1kbps source=onoff on=1s off=0s interval=0s len=1 -> interval must be positive",
            "weight=1kbps source=onoff on=0s off=0s interval=1s len=1 -> on must be positive",
            "weight=1kbps source=onoff on=1s off=-1s interval=1s len=1 -> bad off",
        ] {
            let (args, msg) = case.split_once(" -> ").expect("a case");
            let e = rejected(&format!("link rate=1mbps\nsched sfq\nflow id=1 {args}\n"));
            assert_eq!(e, err(3, msg), "{args}");
        }
        let e = rejected("link rate=0bps\nsched sfq\n");
        assert_eq!(e, err(1, "rate must be positive"));
        let e = rejected("link rate=20000000000000mbps\nsched sfq\n");
        assert_eq!(e, err(1, "bad rate"));
        let twice = "flow id=1 weight=1kbps source=burst count=1 len=1\n".repeat(2);
        for sched in ["sfq", "hsfq"] {
            let e = rejected(&format!("link rate=1mbps\nsched {sched}\n{twice}"));
            assert_eq!(e, err(4, "flow id 1 already defined on line 3"));
        }
    }

    #[test]
    fn end_to_end_run() {
        let sc = Scenario::parse(SAMPLE).expect("parses");
        let mut sched = sc.build_scheduler().expect("builds");
        let mut pf = PacketFactory::new();
        let arrivals = sc.build_arrivals(&mut pf);
        assert!(!arrivals.is_empty());
        let profile = sc.build_profile();
        let deps = servers::run_server(&mut *sched, &profile, &arrivals, sc.horizon);
        assert!(deps.len() > 100);
    }

    #[test]
    fn every_discipline_builds() {
        for name in [
            "sfq", "hsfq", "scfq", "wfq", "fqs", "vc", "drr", "fifo", "fa", "edd",
        ] {
            let text = format!(
                "link rate=1mbps\nsched {name}\nflow id=1 weight=100kbps source=cbr rate=100kbps len=200\nhorizon 1s\n"
            );
            let sc = Scenario::parse(&text).expect("parses");
            let _ = sc.build_scheduler().expect("builds");
        }
        let sc = Scenario::parse(
            "link rate=1mbps\nsched nope\nflow id=1 weight=1kbps source=cbr rate=1kbps len=10\nhorizon 1s\n",
        )
        .expect("parses");
        assert!(sc.build_scheduler().is_err());
    }
}
