//! MPEG group-of-pictures (GOP) flow builders.
//!
//! The paper motivates the GMF model with MPEG-encoded video: a movie is a
//! repetition of a GOP such as `IBBPBBPBB`, and the different frame types
//! have very different sizes (an I frame can easily be five times larger
//! than a B frame).  Figure 3 of the paper shows such a stream with one UDP
//! packet transmitted every 30 ms, the first packet of every GOP carrying
//! the I frame together with the first P frame (written `I+P`), because of
//! the MPEG transmission-order reordering of B frames.
//!
//! [`GopSpec`] turns a GOP description into a [`GmfFlow`];
//! [`paper_figure3_flow`] reconstructs the exact flow of the paper's worked
//! example (9 frames, 30 ms spacing, `TSUM = 270 ms`, 94 Ethernet frames per
//! GOP on any link — see DESIGN.md §4.5 for how the sizes were
//! reconstructed).

use crate::error::ModelError;
use crate::flow::GmfFlow;
use crate::frame::FrameSpec;
use crate::units::{Bits, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of one transmitted MPEG picture (one UDP packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GopFrameType {
    /// An intra-coded picture transmitted together with the first
    /// predicted picture of the GOP (the paper's `I+P` packet).
    IPlusP,
    /// An intra-coded picture on its own.
    I,
    /// A predicted picture.
    P,
    /// A bidirectionally predicted picture.
    B,
}

impl fmt::Display for GopFrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GopFrameType::IPlusP => write!(f, "I+P"),
            GopFrameType::I => write!(f, "I"),
            GopFrameType::P => write!(f, "P"),
            GopFrameType::B => write!(f, "B"),
        }
    }
}

/// Sizes (application payload) of each picture type, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GopSizes {
    /// Payload of an `I+P` packet.
    pub i_plus_p_bytes: u64,
    /// Payload of an `I` packet.
    pub i_bytes: u64,
    /// Payload of a `P` packet.
    pub p_bytes: u64,
    /// Payload of a `B` packet.
    pub b_bytes: u64,
}

impl GopSizes {
    /// The sizes reconstructed for the paper's Figure 3/4 example: they give
    /// exactly 30 + 2×14 + 6×6 = 94 Ethernet frames per GOP (the paper's
    /// `NSUM = 94`) under plain-UDP packetization.
    pub fn paper_example() -> Self {
        GopSizes {
            i_plus_p_bytes: 43_000,
            i_bytes: 30_000,
            p_bytes: 20_000,
            b_bytes: 8_000,
        }
    }

    /// A standard-definition profile (~1.5 Mbit/s at 30 ms frame spacing).
    pub fn sd_profile() -> Self {
        GopSizes {
            i_plus_p_bytes: 18_000,
            i_bytes: 14_000,
            p_bytes: 7_000,
            b_bytes: 3_000,
        }
    }

    /// A high-definition profile (~12 Mbit/s at 30 ms frame spacing).
    pub fn hd_profile() -> Self {
        GopSizes {
            i_plus_p_bytes: 130_000,
            i_bytes: 100_000,
            p_bytes: 60_000,
            b_bytes: 25_000,
        }
    }

    /// Payload of one packet of the given type.
    pub fn payload(&self, ty: GopFrameType) -> Bits {
        match ty {
            GopFrameType::IPlusP => Bits::from_bytes(self.i_plus_p_bytes),
            GopFrameType::I => Bits::from_bytes(self.i_bytes),
            GopFrameType::P => Bits::from_bytes(self.p_bytes),
            GopFrameType::B => Bits::from_bytes(self.b_bytes),
        }
    }

    /// Scale every size by `factor`, rounding to whole bytes (at least 1).
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |b: u64| ((b as f64 * factor).round() as u64).max(1);
        GopSizes {
            i_plus_p_bytes: s(self.i_plus_p_bytes),
            i_bytes: s(self.i_bytes),
            p_bytes: s(self.p_bytes),
            b_bytes: s(self.b_bytes),
        }
    }
}

/// Complete description of a periodic MPEG stream as a GMF flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GopSpec {
    /// Name of the resulting flow.
    pub name: String,
    /// The transmitted packet sequence of one GOP (transmission order).
    pub pattern: Vec<GopFrameType>,
    /// Per-type payload sizes.
    pub sizes: GopSizes,
    /// Time between consecutive packet transmissions (the paper uses 30 ms).
    pub frame_period: Time,
    /// Relative end-to-end deadline of every packet.
    pub deadline: Time,
    /// Generalized jitter of every packet at the source.
    pub jitter: Time,
}

impl GopSpec {
    /// Parse a transmission-order pattern string such as `"IBBPBBPBB"` or
    /// `"(I+P)BBPBBPBB"`; `+` binds the `I` and following `P` into a single
    /// `I+P` packet, parentheses are ignored.
    pub fn parse_pattern(pattern: &str) -> Result<Vec<GopFrameType>, ModelError> {
        let chars: Vec<char> = pattern
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '(' && *c != ')')
            .collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            match chars[i] {
                'I' | 'i' => {
                    if i + 2 < chars.len()
                        && chars[i + 1] == '+'
                        && (chars[i + 2] == 'P' || chars[i + 2] == 'p')
                    {
                        out.push(GopFrameType::IPlusP);
                        i += 3;
                    } else {
                        out.push(GopFrameType::I);
                        i += 1;
                    }
                }
                'P' | 'p' => {
                    out.push(GopFrameType::P);
                    i += 1;
                }
                'B' | 'b' => {
                    out.push(GopFrameType::B);
                    i += 1;
                }
                _ => {
                    return Err(ModelError::NonFinite {
                        what: "unrecognised character in GOP pattern",
                    })
                }
            }
        }
        if out.is_empty() {
            return Err(ModelError::EmptyFlow);
        }
        Ok(out)
    }

    /// Build the GMF flow described by this specification.
    pub fn build(&self) -> Result<GmfFlow, ModelError> {
        if self.pattern.is_empty() {
            return Err(ModelError::EmptyFlow);
        }
        let frames = self
            .pattern
            .iter()
            .map(|&ty| FrameSpec {
                payload: self.sizes.payload(ty),
                min_interarrival: self.frame_period,
                deadline: self.deadline,
                jitter: self.jitter,
            })
            .collect();
        GmfFlow::new(self.name.clone(), frames)
    }
}

/// The transmission-order pattern of the paper's Figure 3:
/// `I+P, B, B, P, B, B, P, B, B` (9 packets per GOP).
pub fn paper_figure3_pattern() -> Vec<GopFrameType> {
    use GopFrameType::*;
    vec![IPlusP, B, B, P, B, B, P, B, B]
}

/// The GMF flow of the paper's Figure 3/4 worked example: the
/// `IBBPBBPBB` MPEG stream with one packet every 30 ms
/// (`n = 9`, `TSUM = 270 ms`) and the reconstructed payload sizes that give
/// 94 Ethernet frames per GOP.  `jitter` is the generalized jitter of every
/// packet (the paper's Figure 4 uses 1 ms); `deadline` is the end-to-end
/// deadline assigned to every packet.
pub fn paper_figure3_flow(name: &str, deadline: Time, jitter: Time) -> GmfFlow {
    GopSpec {
        name: name.to_string(),
        pattern: paper_figure3_pattern(),
        sizes: GopSizes::paper_example(),
        frame_period: Time::from_millis(30.0),
        deadline,
        jitter,
    }
    .build()
    // tidy-allow: unwrap invariant: the paper example flow is always valid
    .expect("the paper example flow is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::LinkDemand;
    use crate::encapsulation::EncapsulationConfig;
    use crate::units::BitRate;

    #[test]
    fn parse_pattern_variants() {
        use GopFrameType::*;
        assert_eq!(
            GopSpec::parse_pattern("IBBPBBPBB").unwrap(),
            vec![I, B, B, P, B, B, P, B, B]
        );
        assert_eq!(
            GopSpec::parse_pattern("(I+P)BB PBB PBB").unwrap(),
            vec![IPlusP, B, B, P, B, B, P, B, B]
        );
        assert_eq!(GopSpec::parse_pattern("i+pbb").unwrap(), vec![IPlusP, B, B]);
        assert!(GopSpec::parse_pattern("").is_err());
        assert!(GopSpec::parse_pattern("IXP").is_err());
    }

    #[test]
    fn frame_type_display() {
        assert_eq!(GopFrameType::IPlusP.to_string(), "I+P");
        assert_eq!(GopFrameType::I.to_string(), "I");
        assert_eq!(GopFrameType::P.to_string(), "P");
        assert_eq!(GopFrameType::B.to_string(), "B");
    }

    #[test]
    fn paper_flow_structure() {
        let flow = paper_figure3_flow("mpeg", Time::from_millis(100.0), Time::from_millis(1.0));
        assert_eq!(flow.n_frames(), 9);
        assert_eq!(flow.tsum(), Time::from_millis(270.0));
        assert_eq!(flow.max_jitter(), Time::from_millis(1.0));
        // The first packet (I+P) is the largest.
        assert_eq!(flow.frame(0).unwrap().payload, Bits::from_bytes(43_000));
        assert_eq!(flow.max_payload(), Bits::from_bytes(43_000));
    }

    #[test]
    fn paper_flow_has_94_ethernet_frames_per_gop() {
        // This is the paper's NSUM = 94 worked value (Figure 4).
        let flow = paper_figure3_flow("mpeg", Time::from_millis(100.0), Time::from_millis(1.0));
        let demand = LinkDemand::new(
            &flow,
            &EncapsulationConfig::paper(),
            BitRate::from_mbps(10.0),
        );
        assert_eq!(demand.nsum(), 94);
        // Per-frame fragment counts: 30 for I+P, 14 for each P, 6 for each B.
        assert_eq!(demand.n_ethernet_frames(0), 30);
        assert_eq!(demand.n_ethernet_frames(3), 14);
        assert_eq!(demand.n_ethernet_frames(6), 14);
        assert_eq!(demand.n_ethernet_frames(1), 6);
        assert_eq!(demand.n_ethernet_frames(8), 6);
    }

    #[test]
    fn gop_sizes_helpers() {
        let s = GopSizes::paper_example();
        assert_eq!(s.payload(GopFrameType::IPlusP), Bits::from_bytes(43_000));
        assert_eq!(s.payload(GopFrameType::I), Bits::from_bytes(30_000));
        assert_eq!(s.payload(GopFrameType::P), Bits::from_bytes(20_000));
        assert_eq!(s.payload(GopFrameType::B), Bits::from_bytes(8_000));
        let half = s.scaled(0.5);
        assert_eq!(half.b_bytes, 4_000);
        // Scaling never yields a zero size.
        let tiny = s.scaled(1e-9);
        assert!(tiny.b_bytes >= 1);
    }

    #[test]
    fn profiles_are_ordered_by_rate() {
        let period = Time::from_millis(30.0);
        let mk = |sizes: GopSizes| {
            GopSpec {
                name: "x".into(),
                pattern: paper_figure3_pattern(),
                sizes,
                frame_period: period,
                deadline: Time::from_millis(100.0),
                jitter: Time::ZERO,
            }
            .build()
            .unwrap()
        };
        let sd = mk(GopSizes::sd_profile());
        let paper = mk(GopSizes::paper_example());
        let hd = mk(GopSizes::hd_profile());
        assert!(sd.mean_payload_rate_bps() < paper.mean_payload_rate_bps());
        assert!(paper.mean_payload_rate_bps() < hd.mean_payload_rate_bps());
    }

    #[test]
    fn empty_pattern_build_fails() {
        let spec = GopSpec {
            name: "x".into(),
            pattern: vec![],
            sizes: GopSizes::sd_profile(),
            frame_period: Time::from_millis(30.0),
            deadline: Time::from_millis(100.0),
            jitter: Time::ZERO,
        };
        assert_eq!(spec.build(), Err(ModelError::EmptyFlow));
    }
}
