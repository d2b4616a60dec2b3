//! Packetization of UDP packets into Ethernet frames.
//!
//! The paper's "Basic parameters" section derives, for frame `k` of flow
//! `τ_i` and a link of known speed:
//!
//! * `nbits_i^k` — the size of the UDP datagram (application payload padded
//!   to whole bytes plus the 8-byte UDP header, plus a 16-byte RTP header if
//!   RTP is used),
//! * the fragmentation of that datagram into Ethernet frames: each Ethernet
//!   frame carries at most 1480 bytes of datagram data (1500-byte Ethernet
//!   payload minus the 20-byte IP header) and occupies 12304 bits on the
//!   wire (1500 B payload + 14 B header + 4 B CRC + 8 B preamble/SFD + 12 B
//!   inter-frame gap),
//! * `C_i^k,link(s,d)` — the total transmission time of the UDP packet on
//!   the link, and
//! * `MFT_link(s,d)` (eq. 1) — the Maximum-Frame-Transmission-Time of the
//!   link, i.e. the time to serialise one maximum-size Ethernet frame.
//!
//! The final (partial) fragment of a datagram occupies
//! `remaining-data-bits + 464` bits on the wire (20 B IP header + 38 B of
//! Ethernet framing overhead), optionally floored at the 64-byte minimum
//! Ethernet frame size (a refinement over the paper, see
//! [`EncapsulationConfig::enforce_min_frame`]).

use crate::units::{BitRate, Bits, Time};
use serde::{Deserialize, Serialize};

/// UDP header size.
pub const UDP_HEADER: Bits = Bits::from_bytes(8);
/// RTP header size (added when [`Encapsulation::RtpUdp`] is used).
pub const RTP_HEADER: Bits = Bits::from_bytes(16);
/// IPv4 header size (carried in every Ethernet frame of the datagram).
pub const IP_HEADER: Bits = Bits::from_bytes(20);
/// Maximum Ethernet payload (the MTU), including the IP header.
pub const ETHERNET_MTU: Bits = Bits::from_bytes(1500);
/// Ethernet MAC header (destination + source + EtherType).
pub const ETHERNET_HEADER: Bits = Bits::from_bytes(14);
/// Ethernet frame check sequence.
pub const ETHERNET_CRC: Bits = Bits::from_bytes(4);
/// Preamble plus start-frame delimiter.
pub const ETHERNET_PREAMBLE: Bits = Bits::from_bytes(8);
/// Minimum inter-frame gap.
pub const ETHERNET_IFG: Bits = Bits::from_bytes(12);
/// Minimum Ethernet frame size (header + payload + CRC), excluding preamble
/// and inter-frame gap.
pub const ETHERNET_MIN_FRAME: Bits = Bits::from_bytes(64);

/// Number of datagram data bits carried by one full Ethernet frame:
/// 1500-byte payload minus the 20-byte IP header = 1480 bytes = 11840 bits.
pub const DATA_BITS_PER_FULL_FRAME: u64 = (ETHERNET_MTU.as_bits() - IP_HEADER.as_bits()) / 8 * 8; // 11840

/// Wire size of a maximum-size Ethernet frame: 1538 bytes = 12304 bits
/// (payload + header + CRC + preamble/SFD + IFG).
pub const WIRE_BITS_PER_FULL_FRAME: u64 = ETHERNET_MTU.as_bits()
    + ETHERNET_HEADER.as_bits()
    + ETHERNET_CRC.as_bits()
    + ETHERNET_PREAMBLE.as_bits()
    + ETHERNET_IFG.as_bits(); // 12304

/// Per-fragment overhead on the wire beyond the datagram data it carries:
/// the IP header plus all Ethernet framing overhead = 58 bytes = 464 bits.
pub const WIRE_OVERHEAD_PER_FRAGMENT: u64 = IP_HEADER.as_bits()
    + ETHERNET_HEADER.as_bits()
    + ETHERNET_CRC.as_bits()
    + ETHERNET_PREAMBLE.as_bits()
    + ETHERNET_IFG.as_bits(); // 464

/// Wire size of a minimum-size Ethernet frame including preamble and IFG:
/// 64 + 8 + 12 = 84 bytes = 672 bits.
pub const WIRE_BITS_MIN_FRAME: u64 =
    ETHERNET_MIN_FRAME.as_bits() + ETHERNET_PREAMBLE.as_bits() + ETHERNET_IFG.as_bits(); // 672

/// Which transport headers wrap the application payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Encapsulation {
    /// Plain UDP: payload + 8-byte UDP header.
    #[default]
    Udp,
    /// RTP over UDP: payload + 16-byte RTP header + 8-byte UDP header
    /// (the usual case for the paper's motivating VoIP / video traffic).
    RtpUdp,
}

impl Encapsulation {
    /// Transport-layer header bits added on top of the application payload.
    pub fn header_bits(self) -> Bits {
        match self {
            Encapsulation::Udp => UDP_HEADER,
            Encapsulation::RtpUdp => Bits::from_bits(UDP_HEADER.as_bits() + RTP_HEADER.as_bits()),
        }
    }
}

/// Configuration of the packetization model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncapsulationConfig {
    /// Transport encapsulation of every UDP packet of the flow.
    pub encapsulation: Encapsulation,
    /// If `true`, a final fragment smaller than the 64-byte minimum Ethernet
    /// frame is padded up to the minimum (672 bits on the wire including
    /// preamble and IFG).  The paper does not model this; it is enabled by
    /// default because real switches behave this way and it only makes the
    /// bound safer.
    pub enforce_min_frame: bool,
}

impl Default for EncapsulationConfig {
    fn default() -> Self {
        EncapsulationConfig {
            encapsulation: Encapsulation::Udp,
            enforce_min_frame: true,
        }
    }
}

impl EncapsulationConfig {
    /// The configuration that matches the paper's equations exactly
    /// (plain UDP, no minimum-frame padding).
    pub fn paper() -> Self {
        EncapsulationConfig {
            encapsulation: Encapsulation::Udp,
            enforce_min_frame: false,
        }
    }

    /// RTP-over-UDP variant of [`EncapsulationConfig::paper`].
    pub fn paper_rtp() -> Self {
        EncapsulationConfig {
            encapsulation: Encapsulation::RtpUdp,
            enforce_min_frame: false,
        }
    }
}

/// The result of packetizing one UDP packet (one GMF frame) for
/// transmission over Ethernet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packetization {
    /// `nbits`: size of the UDP datagram (payload rounded up to whole bytes
    /// plus transport headers), before IP/Ethernet encapsulation.
    pub datagram_bits: Bits,
    /// Number of Ethernet frames the datagram is fragmented into.
    pub n_ethernet_frames: u64,
    /// Wire size of each Ethernet frame (including IP header, Ethernet
    /// header, CRC, preamble and inter-frame gap), in transmission order.
    /// All but the last entry are full 12304-bit frames.
    pub frame_wire_bits: Vec<Bits>,
    /// Total wire bits of the datagram (sum of `frame_wire_bits`).
    pub total_wire_bits: Bits,
}

impl Packetization {
    /// Total transmission time of the datagram on a link of speed `speed`
    /// — the paper's `C_i^k,link(s,d)`.
    pub fn transmission_time(&self, speed: BitRate) -> Time {
        speed.transmission_time(self.total_wire_bits)
    }

    /// Transmission time of the largest single Ethernet frame of the
    /// datagram on a link of speed `speed`.
    pub fn max_frame_transmission_time(&self, speed: BitRate) -> Time {
        self.frame_wire_bits
            .iter()
            .map(|&b| speed.transmission_time(b))
            .fold(Time::ZERO, Time::max)
    }
}

/// Compute `nbits_i^k`: the UDP datagram size for an application payload of
/// `payload` bits under the given encapsulation.
///
/// The payload is padded up to a whole number of bytes (the paper's
/// `ceil(S/8) * 8` term) and the transport header(s) are added.
pub fn datagram_bits(payload: Bits, encapsulation: Encapsulation) -> Bits {
    let padded_payload = Bits::from_bytes(payload.as_bytes_ceil());
    padded_payload + encapsulation.header_bits()
}

/// Packetize one UDP datagram into Ethernet frames.
///
/// `payload` is the application payload (`S_i^k`).  The returned
/// [`Packetization`] lists the wire size of every Ethernet frame; link-speed
/// dependent quantities are computed from it on demand.
pub fn packetize(payload: Bits, config: &EncapsulationConfig) -> Packetization {
    let datagram = datagram_bits(payload, config.encapsulation);
    let nbits = datagram.as_bits();

    let full_frames = nbits / DATA_BITS_PER_FULL_FRAME;
    let remainder = nbits % DATA_BITS_PER_FULL_FRAME;

    let mut frame_wire_bits =
        Vec::with_capacity(full_frames as usize + usize::from(remainder != 0));
    for _ in 0..full_frames {
        frame_wire_bits.push(Bits::from_bits(WIRE_BITS_PER_FULL_FRAME));
    }
    if remainder != 0 {
        let mut wire = remainder + WIRE_OVERHEAD_PER_FRAGMENT;
        if config.enforce_min_frame && wire < WIRE_BITS_MIN_FRAME {
            wire = WIRE_BITS_MIN_FRAME;
        }
        frame_wire_bits.push(Bits::from_bits(wire));
    }

    let total_wire_bits = frame_wire_bits.iter().copied().sum();
    Packetization {
        datagram_bits: datagram,
        n_ethernet_frames: frame_wire_bits.len() as u64,
        frame_wire_bits,
        total_wire_bits,
    }
}

/// The Ethernet-frame count and total wire bits of one datagram — the two
/// totals of [`packetize`] the analysis needs — computed arithmetically,
/// without listing the frames: `packetize(payload, config)` has
/// `n_ethernet_frames` and `total_wire_bits` equal to this pair.
pub fn wire_totals(payload: Bits, config: &EncapsulationConfig) -> (u64, Bits) {
    let nbits = datagram_bits(payload, config.encapsulation).as_bits();
    let full_frames = nbits / DATA_BITS_PER_FULL_FRAME;
    let remainder = nbits % DATA_BITS_PER_FULL_FRAME;
    let mut wire = full_frames * WIRE_BITS_PER_FULL_FRAME;
    if remainder == 0 {
        return (full_frames, Bits::from_bits(wire));
    }
    let mut last = remainder + WIRE_OVERHEAD_PER_FRAGMENT;
    if config.enforce_min_frame && last < WIRE_BITS_MIN_FRAME {
        last = WIRE_BITS_MIN_FRAME;
    }
    wire += last;
    (full_frames + 1, Bits::from_bits(wire))
}

/// `MFT_link` (eq. 1): the Maximum-Frame-Transmission-Time of a link — the
/// time needed to serialise one maximum-size Ethernet frame (12304 bits) at
/// the link speed.
pub fn max_frame_transmission_time(speed: BitRate) -> Time {
    speed.transmission_time(Bits::from_bits(WIRE_BITS_PER_FULL_FRAME))
}

/// Number of Ethernet frames needed for a payload under a configuration —
/// shorthand for `packetize(payload, config).n_ethernet_frames`.
pub fn n_ethernet_frames(payload: Bits, config: &EncapsulationConfig) -> u64 {
    let nbits = datagram_bits(payload, config.encapsulation).as_bits();
    nbits.div_ceil(DATA_BITS_PER_FULL_FRAME)
}

/// Transmission time of a payload on a link — shorthand for
/// `packetize(payload, config).transmission_time(speed)`.
pub fn transmission_time(payload: Bits, config: &EncapsulationConfig, speed: BitRate) -> Time {
    packetize(payload, config).transmission_time(speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(DATA_BITS_PER_FULL_FRAME, 11840);
        assert_eq!(WIRE_BITS_PER_FULL_FRAME, 12304);
        assert_eq!(WIRE_OVERHEAD_PER_FRAGMENT, 464);
        assert_eq!(WIRE_BITS_MIN_FRAME, 672);
    }

    #[test]
    fn datagram_bits_pads_and_adds_headers() {
        // 100 bytes of payload + 8 bytes UDP header.
        assert_eq!(
            datagram_bits(Bits::from_bytes(100), Encapsulation::Udp),
            Bits::from_bytes(108)
        );
        // Payload of 9 bits pads to 2 bytes.
        assert_eq!(
            datagram_bits(Bits::from_bits(9), Encapsulation::Udp),
            Bits::from_bytes(10)
        );
        // RTP adds 16 more bytes.
        assert_eq!(
            datagram_bits(Bits::from_bytes(100), Encapsulation::RtpUdp),
            Bits::from_bytes(124)
        );
    }

    #[test]
    fn single_small_fragment() {
        let cfg = EncapsulationConfig::paper();
        let p = packetize(Bits::from_bytes(160), &cfg);
        assert_eq!(p.n_ethernet_frames, 1);
        // 168 bytes datagram + 58 bytes of IP+Ethernet overhead on the wire.
        assert_eq!(p.total_wire_bits, Bits::from_bytes(168 + 58));
        assert_eq!(p.frame_wire_bits.len(), 1);
    }

    #[test]
    fn min_frame_padding_applies_only_when_enabled() {
        // A 10-byte payload gives an 18-byte datagram: far below the 64-byte
        // minimum Ethernet frame.
        let paper = packetize(Bits::from_bytes(10), &EncapsulationConfig::paper());
        assert_eq!(paper.total_wire_bits, Bits::from_bits(18 * 8 + 464));

        let real = packetize(Bits::from_bytes(10), &EncapsulationConfig::default());
        assert_eq!(real.total_wire_bits, Bits::from_bits(WIRE_BITS_MIN_FRAME));
        assert!(real.total_wire_bits > paper.total_wire_bits);
    }

    #[test]
    fn exact_multiple_of_data_bits_has_no_partial_fragment() {
        // Choose a payload such that the datagram is exactly 2 * 1480 bytes:
        // payload = 2960 - 8 = 2952 bytes.
        let cfg = EncapsulationConfig::paper();
        let p = packetize(Bits::from_bytes(2952), &cfg);
        assert_eq!(p.datagram_bits, Bits::from_bytes(2960));
        assert_eq!(p.n_ethernet_frames, 2);
        assert_eq!(
            p.total_wire_bits,
            Bits::from_bits(2 * WIRE_BITS_PER_FULL_FRAME)
        );
    }

    #[test]
    fn fragmentation_counts_and_sizes() {
        let cfg = EncapsulationConfig::paper();
        // 4000-byte payload -> 4008-byte datagram = 32064 bits
        // = 2 full frames (23680 bits) + 8384 bits remainder.
        let p = packetize(Bits::from_bytes(4000), &cfg);
        assert_eq!(p.n_ethernet_frames, 3);
        assert_eq!(p.frame_wire_bits[0], Bits::from_bits(12304));
        assert_eq!(p.frame_wire_bits[1], Bits::from_bits(12304));
        assert_eq!(p.frame_wire_bits[2], Bits::from_bits(8384 + 464));
        assert_eq!(p.total_wire_bits, Bits::from_bits(2 * 12304 + 8384 + 464));
        assert_eq!(n_ethernet_frames(Bits::from_bytes(4000), &cfg), 3);
    }

    #[test]
    fn transmission_time_matches_hand_calculation() {
        let cfg = EncapsulationConfig::paper();
        let speed = BitRate::from_bps(1e7);
        // Single full frame: exactly MFT.
        let mft = max_frame_transmission_time(speed);
        assert_eq!(mft, Time::from_millis(1.2304));
        // The 4000-byte example above: (2*12304 + 8848) bits at 10 Mbit/s.
        let t = transmission_time(Bits::from_bytes(4000), &cfg, speed);
        assert_eq!(t, Time::from_secs((2.0 * 12304.0 + 8848.0) / 1e7));
        // Max single-frame time of the same packetization is the MFT.
        let p = packetize(Bits::from_bytes(4000), &cfg);
        assert_eq!(p.max_frame_transmission_time(speed), mft);
    }

    #[test]
    fn mft_scales_inversely_with_speed() {
        let m10 = max_frame_transmission_time(BitRate::from_mbps(10.0));
        let m100 = max_frame_transmission_time(BitRate::from_mbps(100.0));
        let m1000 = max_frame_transmission_time(BitRate::from_gbps(1.0));
        assert_eq!(m10, m100 * 10u64);
        assert_eq!(m100, m1000 * 10u64);
        assert_eq!(m1000, Time::from_micros(12.304));
    }

    #[test]
    fn rtp_encapsulation_increases_size() {
        let udp = packetize(Bits::from_bytes(1472), &EncapsulationConfig::paper());
        let rtp = packetize(Bits::from_bytes(1472), &EncapsulationConfig::paper_rtp());
        // 1472 + 8 = 1480 bytes fits a single frame under UDP but spills into
        // a second fragment once the RTP header is added.
        assert_eq!(udp.n_ethernet_frames, 1);
        assert_eq!(rtp.n_ethernet_frames, 2);
        assert!(rtp.total_wire_bits > udp.total_wire_bits);
    }

    #[test]
    fn header_bits_by_encapsulation() {
        assert_eq!(Encapsulation::Udp.header_bits(), Bits::from_bytes(8));
        assert_eq!(Encapsulation::RtpUdp.header_bits(), Bits::from_bytes(24));
    }
}
