//! A compact TCP Reno sender/receiver model.
//!
//! Figure 1 of the paper runs two TCP Reno sources through the
//! scheduled switch; what matters for the experiment is window-based
//! flow control reacting to the service order (and losses) the
//! scheduler produces. This model implements the Reno essentials:
//! slow start, congestion avoidance, fast retransmit / fast recovery on
//! three duplicate ACKs, and an adaptive retransmission timeout with
//! exponential backoff (Karn's rule for RTT samples).
//!
//! The sender is a pure state machine — events in (`on_ack`, `on_rto`),
//! segment numbers to transmit out — so it unit-tests without any
//! network. The driver in `net.rs` mints packets for the returned
//! segment numbers and owns all timing.

use simtime::{Bytes, SimDuration, SimTime};

/// Sender configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (every segment is exactly this long).
    pub mss: Bytes,
    /// Initial congestion window in segments.
    pub init_cwnd: f64,
    /// Initial slow-start threshold in segments.
    pub init_ssthresh: f64,
    /// Lower bound for the adaptive RTO.
    pub min_rto: SimDuration,
    /// Optional cap on total distinct segments (None = greedy/ftp).
    pub limit: Option<u64>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: Bytes::new(200),
            init_cwnd: 1.0,
            init_ssthresh: 64.0,
            min_rto: SimDuration::from_millis(200),
            limit: None,
        }
    }
}

/// TCP Reno sender state machine. Segment numbers are 1-based.
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Congestion window in segments.
    cwnd: f64,
    ssthresh: f64,
    /// Oldest unacknowledged segment.
    send_base: u64,
    /// Next never-sent segment.
    next_seq: u64,
    dup_acks: u32,
    in_recovery: bool,
    /// `next_seq` at the moment recovery began.
    recover: u64,
    // RTT estimation (Jacobson/Karn).
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    backoff: u32,
    /// Send time of `send_base`-era segments for RTT sampling:
    /// (segment, sent_at, retransmitted?).
    sample: Option<(u64, SimTime, bool)>,
    /// Timer generation: an RTO event is valid only if its generation
    /// matches.
    timer_gen: u64,
    timer_deadline: Option<SimTime>,
}

impl TcpSender {
    /// New sender; call [`TcpSender::on_start`] to get the first
    /// window.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpSender {
            cfg,
            cwnd: cfg.init_cwnd,
            ssthresh: cfg.init_ssthresh,
            send_base: 1,
            next_seq: 1,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.min_rto,
            backoff: 0,
            sample: None,
            timer_gen: 0,
            timer_deadline: None,
        }
    }

    /// Current congestion window in segments (telemetry).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Oldest unacknowledged segment (telemetry).
    pub fn send_base(&self) -> u64 {
        self.send_base
    }

    /// `true` once every segment of a limited transfer is acked.
    pub fn finished(&self) -> bool {
        match self.cfg.limit {
            Some(n) => self.send_base > n,
            None => false,
        }
    }

    /// Current RTO timer: `(deadline, generation)`. The driver should
    /// schedule an event at the deadline and deliver it via
    /// [`TcpSender::on_rto`] with the generation; stale generations are
    /// ignored.
    pub fn timer(&self) -> Option<(SimTime, u64)> {
        self.timer_deadline.map(|d| (d, self.timer_gen))
    }

    fn usable_window(&self) -> u64 {
        self.cwnd.floor().max(1.0) as u64
    }

    fn sendable(&mut self, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        let limit = self.cfg.limit.unwrap_or(u64::MAX);
        while self.next_seq < self.send_base + self.usable_window() && self.next_seq <= limit {
            out.push(self.next_seq);
            if self.sample.is_none() {
                self.sample = Some((self.next_seq, now, false));
            }
            self.next_seq += 1;
        }
        if !out.is_empty() {
            self.arm_timer(now);
        }
        out
    }

    fn arm_timer(&mut self, now: SimTime) {
        self.timer_gen += 1;
        self.timer_deadline = Some(now + self.effective_rto());
    }

    fn disarm_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_deadline = None;
    }

    fn effective_rto(&self) -> SimDuration {
        let mut rto = self.rto;
        for _ in 0..self.backoff {
            rto = rto + rto;
        }
        rto
    }

    fn rtt_sample(&mut self, now: SimTime, ackno: u64) {
        // Karn: only sample if the timed segment was acked and was
        // never retransmitted.
        if let Some((seg, sent, retx)) = self.sample {
            if ackno > seg {
                if !retx {
                    let r = (now - sent).as_secs_f64();
                    let srtt = match self.srtt {
                        None => {
                            self.rttvar = r / 2.0;
                            r
                        }
                        Some(s) => {
                            let err = r - s;
                            self.rttvar = 0.75 * self.rttvar + 0.25 * err.abs();
                            s + 0.125 * err
                        }
                    };
                    self.srtt = Some(srtt);
                    let rto_s = srtt + 4.0 * self.rttvar.max(1e-6);
                    let ns = (rto_s * 1e9).round() as i128;
                    self.rto = SimDuration::from_nanos(ns).max(self.cfg.min_rto);
                }
                self.sample = None;
            }
        }
    }

    /// Connection start: returns the initial window of segments to
    /// transmit.
    pub fn on_start(&mut self, now: SimTime) -> Vec<u64> {
        self.sendable(now)
    }

    /// Process a cumulative ACK (`ackno` = receiver's next expected
    /// segment). Returns segment numbers to transmit *now* —
    /// retransmissions first.
    pub fn on_ack(&mut self, now: SimTime, ackno: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if ackno > self.send_base {
            // New data acknowledged.
            self.rtt_sample(now, ackno);
            self.backoff = 0;
            self.send_base = ackno;
            self.dup_acks = 0;
            if self.in_recovery {
                if ackno > self.recover {
                    // Full recovery: deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ACK (NewReno-style hole fill): retransmit
                    // the next missing segment, stay in recovery.
                    out.push(self.send_base);
                    self.sample = Some((self.send_base, now, true));
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
            if self.send_base == self.next_seq && !self.in_recovery {
                self.disarm_timer();
            } else {
                self.arm_timer(now);
            }
        } else if ackno == self.send_base && self.next_seq > self.send_base {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.in_recovery {
                self.cwnd += 1.0; // window inflation
            } else if self.dup_acks == 3 {
                let flight = (self.next_seq - self.send_base) as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.in_recovery = true;
                self.recover = self.next_seq - 1;
                out.push(self.send_base); // fast retransmit
                self.sample = Some((self.send_base, now, true));
                self.arm_timer(now);
            }
        }
        out.extend(self.sendable(now));
        out
    }

    /// Retransmission timeout with generation check. Returns segments
    /// to transmit (the lost head segment).
    pub fn on_rto(&mut self, now: SimTime, gen: u64) -> Vec<u64> {
        if gen != self.timer_gen || self.finished() {
            return Vec::new();
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.backoff = (self.backoff + 1).min(6);
        self.sample = Some((self.send_base, now, true));
        self.arm_timer(now);
        vec![self.send_base]
    }
}

/// TCP receiver: cumulative ACK generation with out-of-order buffering.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    expected: u64,
    ooo: std::collections::BTreeSet<u64>,
}

impl TcpReceiver {
    /// New receiver expecting segment 1.
    pub fn new() -> Self {
        TcpReceiver {
            expected: 1,
            ooo: Default::default(),
        }
    }

    /// Process arrived segment `seq`; returns the cumulative ACK to
    /// send back (next expected segment).
    pub fn on_segment(&mut self, seq: u64) -> u64 {
        if seq == self.expected {
            self.expected += 1;
            while self.ooo.remove(&self.expected) {
                self.expected += 1;
            }
        } else if seq > self.expected {
            self.ooo.insert(seq);
        }
        self.expected
    }

    /// Highest in-order segment received (0 if none).
    pub fn in_order(&self) -> u64 {
        self.expected - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    #[test]
    fn slow_start_doubles_window_per_rtt() {
        let mut s = TcpSender::new(cfg());
        let t0 = SimTime::ZERO;
        assert_eq!(s.on_start(t0), vec![1]);
        // Ack 1 segment: cwnd 2, send 2 & 3.
        let t1 = SimTime::from_millis(10);
        assert_eq!(s.on_ack(t1, 2), vec![2, 3]);
        assert!((s.cwnd() - 2.0).abs() < 1e-9);
        // Ack both: cwnd 4 after two acks.
        let t2 = SimTime::from_millis(20);
        let sent = [s.on_ack(t2, 3), s.on_ack(t2, 4)].concat();
        assert_eq!(sent, vec![4, 5, 6, 7]);
        assert!((s.cwnd() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = TcpSender::new(TcpConfig {
            init_cwnd: 4.0,
            init_ssthresh: 4.0,
            ..cfg()
        });
        let _ = s.on_start(SimTime::ZERO);
        let before = s.cwnd();
        let _ = s.on_ack(SimTime::from_millis(10), 2);
        assert!((s.cwnd() - (before + 1.0 / before)).abs() < 1e-9);
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let mut s = TcpSender::new(TcpConfig {
            init_cwnd: 8.0,
            ..cfg()
        });
        let t0 = SimTime::ZERO;
        assert_eq!(s.on_start(t0).len(), 8);
        // Segment 1 lost: receiver acks 1 repeatedly.
        let t = SimTime::from_millis(10);
        assert!(s.on_ack(t, 1).is_empty());
        assert!(s.on_ack(t, 1).is_empty());
        let retx = s.on_ack(t, 1); // third dupack
        assert_eq!(retx[0], 1, "fast retransmit of send_base");
        // ssthresh = flight/2 = 4, cwnd = 7.
        assert!((s.cwnd() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_exits_and_deflates_on_new_ack() {
        let mut s = TcpSender::new(TcpConfig {
            init_cwnd: 8.0,
            ..cfg()
        });
        let t = SimTime::from_millis(10);
        let _ = s.on_start(SimTime::ZERO);
        for _ in 0..3 {
            let _ = s.on_ack(t, 1);
        }
        assert!(s.in_recovery);
        // Full cumulative ack of everything outstanding.
        let _ = s.on_ack(SimTime::from_millis(30), 9);
        assert!(!s.in_recovery);
        assert!((s.cwnd() - 4.0).abs() < 1e-9, "deflated to ssthresh");
        assert_eq!(s.send_base(), 9);
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut s = TcpSender::new(TcpConfig {
            init_cwnd: 8.0,
            ..cfg()
        });
        let _ = s.on_start(SimTime::ZERO);
        let (deadline, gen) = s.timer().expect("armed after send");
        let retx = s.on_rto(deadline, gen);
        assert_eq!(retx, vec![1]);
        assert!((s.cwnd() - 1.0).abs() < 1e-9);
        assert!((s.ssthresh - 4.0).abs() < 1e-9);
        // Stale generation is ignored.
        assert!(s.on_rto(deadline, gen).is_empty());
    }

    #[test]
    fn limited_transfer_finishes() {
        let mut s = TcpSender::new(TcpConfig {
            limit: Some(3),
            init_cwnd: 10.0,
            ..cfg()
        });
        assert_eq!(s.on_start(SimTime::ZERO), vec![1, 2, 3]);
        let _ = s.on_ack(SimTime::from_millis(1), 4);
        assert!(s.finished());
        assert!(s.timer().is_none(), "no data outstanding");
    }

    #[test]
    fn receiver_cumulative_acks_with_holes() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(1), 2);
        assert_eq!(r.on_segment(3), 2); // hole at 2
        assert_eq!(r.on_segment(4), 2);
        assert_eq!(r.on_segment(2), 5); // fills hole, jumps past buffer
        assert_eq!(r.in_order(), 4);
        // Duplicate old segment does not regress.
        assert_eq!(r.on_segment(1), 5);
    }

    #[test]
    fn rtt_sampling_sets_rto() {
        let mut s = TcpSender::new(cfg());
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(SimTime::from_millis(50), 2);
        // srtt = 50 ms; rto = srtt + 4*rttvar = 50 + 100 = 150 ms,
        // clamped to min_rto 200 ms.
        assert_eq!(s.rto, SimDuration::from_millis(200));
        let mut s2 = TcpSender::new(TcpConfig {
            min_rto: SimDuration::from_millis(10),
            ..cfg()
        });
        let _ = s2.on_start(SimTime::ZERO);
        let _ = s2.on_ack(SimTime::from_millis(50), 2);
        assert_eq!(s2.rto, SimDuration::from_millis(150));
    }
}
