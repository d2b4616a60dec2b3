//! Precompiled demand tables: the `MX`/`NX` request bounds as flat,
//! cycle-periodic prefix-maximum tables.
//!
//! [`LinkDemand::mxs`]/[`LinkDemand::nxs`] evaluate the paper's eq. 10/12
//! by enumerating every `(k1, k2)` window of the GMF cycle and re-summing
//! its `CSUM`/`NSUM`/`TSUM` on every call — `O(n³)` work per query, paid
//! inside every iteration of every busy-period fixed point.  A
//! [`DemandTable`] hoists that enumeration out of the hot path: it is
//! built once per `LinkDemand`, stores the windows sorted by their
//! minimum span `TSUM(k1, k2)` together with running maxima of
//! `CSUM(k1, k2)` and `NSUM(k1, k2)`, and answers each query with one
//! binary search.
//!
//! ## Why the table is byte-identical to the closed forms
//!
//! For a window length `t > 0` the closed-form `MXS` maximises
//! `min(CSUM(k1,k2), t)` over all windows with `TSUM(k1,k2) <= t`.  The
//! eligible set is exactly a prefix of the span-sorted table, and for a
//! totally ordered domain `max_i min(c_i, t) = min(max_i c_i, t)`, so the
//! stored prefix maximum capped at `t` reproduces the double loop's
//! result.  Only comparisons are involved — no arithmetic — so the
//! equality is bit-exact, not approximate.  The whole-cycle splice of
//! `MX`/`NX` (eq. 11/13) is recomputed here with the very same exact
//! `div_floor` and saturating operators as [`LinkDemand::mx`] /
//! [`LinkDemand::nx`].  The property test
//! `tests/demand_table_properties.rs` pins this equality over random
//! flows, horizons and saturation cases.

use crate::demand::LinkDemand;
use crate::units::Time;
use serde::{Deserialize, Serialize};

/// Flat prefix-maximum table answering `mxs`/`nxs`/`mx`/`nx` queries for
/// one [`LinkDemand`] in `O(log n²)` instead of `O(n³)`.
///
/// Built once per (flow, link speed) pair and shared via the analysis
/// context's demand interner; the per-frame kernels only ever touch this
/// table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandTable {
    /// Collapsed windows sorted ascending by span — one contiguous block
    /// so a lookup touches a single cache line for the small tables real
    /// GMF flows produce.
    windows: Vec<WindowRow>,
    /// `CSUM` of one whole GMF cycle (eq. 4).
    csum: Time,
    /// `NSUM` of one whole GMF cycle (eq. 5).
    nsum: u64,
    /// `TSUM` of one whole GMF cycle (eq. 6).
    tsum: Time,
}

/// One collapsed table row: a distinct window span plus the running maxima
/// over every window at most that long.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct WindowRow {
    /// Distinct window span `TSUM(k1, k2)`.
    span: Time,
    /// Largest `CSUM(k1, k2)` over every window whose span is `<= span`
    /// (running maximum, seeded at [`Time::ZERO`] like the closed form's
    /// accumulator).
    csum_max: Time,
    /// Largest `NSUM(k1, k2)` over every window whose span is `<= span`.
    nsum_max: u64,
}

impl DemandTable {
    /// Compile `demand`'s request bounds into a flat table.
    ///
    /// Enumerates all `n²` cyclic windows straight into the table's one
    /// allocation, sorts them by span, then turns each row into the
    /// running maxima and collapses equal spans in place.
    ///
    /// The enumeration extends each window by one frame at a time, so a
    /// whole start row costs `O(n)` instead of the `O(n²)` of calling
    /// `tsum_window`/`csum_window`/`nsum_window` per `(k1, k2)` — the
    /// build is `O(n² log n)` total, cheap enough to pay inside every
    /// admission-trial context build.  Integer sums are exact, so every
    /// stored value equals the accessor it replaces.
    pub fn new(demand: &LinkDemand) -> Self {
        let n = demand.n_frames();
        let mut windows: Vec<WindowRow> = Vec::with_capacity(n.saturating_mul(n));
        for k1 in 0..n {
            let mut span = Time::ZERO;
            let mut csum = Time::ZERO;
            let mut nsum = 0u64;
            for k in k1..k1 + n {
                // `tsum_window(k1, k2)` sums the k2-1 gaps *between* the
                // frames: the gap after the window's last frame joins the
                // span only once the next frame extends the window.
                if k > k1 {
                    span += demand.t(k - 1); // tidy-allow: time-arith Time addition saturates
                }
                csum += demand.c(k); // tidy-allow: time-arith Time addition saturates
                nsum = nsum.saturating_add(demand.n_ethernet_frames(k));
                windows.push(WindowRow {
                    span,
                    csum_max: csum,
                    nsum_max: nsum,
                });
            }
        }
        windows.sort_unstable_by_key(|row| row.span);

        // Running maxima (seeded at zero like the closed form's
        // accumulator), then one row per distinct span: the last of each
        // run of equal spans carries the maxima over all of them.
        let mut best_c = Time::ZERO;
        let mut best_n = 0u64;
        for row in &mut windows {
            best_c = best_c.max(row.csum_max);
            best_n = best_n.max(row.nsum_max);
            row.csum_max = best_c;
            row.nsum_max = best_n;
        }
        windows.dedup_by(|later, kept| {
            let same = later.span == kept.span;
            if same {
                *kept = *later;
            }
            same
        });

        DemandTable {
            windows,
            csum: demand.csum(),
            nsum: demand.nsum(),
            tsum: demand.tsum(),
        }
    }

    /// Number of distinct window spans stored (after collapsing ties) —
    /// the `kernel/windows` telemetry counter.
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// `CSUM` of one whole GMF cycle (eq. 4), as captured at build time.
    pub fn csum(&self) -> Time {
        self.csum
    }

    /// `NSUM` of one whole GMF cycle (eq. 5), as captured at build time.
    pub fn nsum(&self) -> u64 {
        self.nsum
    }

    /// `TSUM` of one whole GMF cycle (eq. 6), as captured at build time.
    pub fn tsum(&self) -> Time {
        self.tsum
    }

    /// Index of the first stored span strictly greater than `t`, i.e. the
    /// number of eligible table entries for a window of length `t`.
    ///
    /// Real GMF tables are tiny (`n²` windows collapse hard), so a
    /// predictable linear scan beats binary search until well past the
    /// sizes the generators produce; larger tables fall back to
    /// `partition_point`.
    #[inline]
    fn eligible(&self, t: Time) -> usize {
        let windows = self.windows.as_slice();
        if windows.len() <= 32 {
            windows.iter().take_while(|row| row.span <= t).count()
        } else {
            windows.partition_point(|row| row.span <= t)
        }
    }

    /// `MXS` (eq. 10) — bit-identical to [`LinkDemand::mxs`].
    #[inline]
    pub fn mxs(&self, t: Time) -> Time {
        if t <= Time::ZERO {
            return Time::ZERO;
        }
        let idx = self.eligible(t);
        if idx == 0 {
            return Time::ZERO;
        }
        self.windows[idx - 1].csum_max.min(t)
    }

    /// `MX` (eq. 11) — bit-identical to [`LinkDemand::mx`].
    #[inline]
    pub fn mx(&self, t: Time) -> Time {
        if t <= Time::ZERO {
            return Time::ZERO;
        }
        let cycles = t.div_floor(self.tsum);
        let residual = t - self.tsum * cycles;
        self.csum * cycles + self.mxs(residual)
    }

    /// `NXS` (eq. 12) — bit-identical to [`LinkDemand::nxs`].
    #[inline]
    pub fn nxs(&self, t: Time) -> u64 {
        if t <= Time::ZERO {
            return 0;
        }
        let idx = self.eligible(t);
        if idx == 0 {
            return 0;
        }
        self.windows[idx - 1].nsum_max
    }

    /// `NX` (eq. 13) — bit-identical to [`LinkDemand::nx`].
    #[inline]
    pub fn nx(&self, t: Time) -> u64 {
        if t <= Time::ZERO {
            return 0;
        }
        let cycles = t.div_floor(self.tsum);
        let residual = t - self.tsum * cycles;
        self.nsum
            .saturating_mul(cycles)
            .saturating_add(self.nxs(residual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::EncapsulationConfig;
    use crate::flow::GmfFlow;
    use crate::frame::FrameSpec;
    use crate::units::BitRate;

    /// The hand-checkable 3-frame flow from `demand.rs`'s tests.
    fn demand() -> LinkDemand {
        let flow = GmfFlow::new(
            "t",
            vec![
                FrameSpec::from_bytes_ms(1000, 10.0, 100.0),
                FrameSpec::from_bytes_ms(2000, 20.0, 100.0),
                FrameSpec::from_bytes_ms(4000, 30.0, 100.0),
            ],
        )
        .unwrap();
        LinkDemand::new(
            &flow,
            &EncapsulationConfig::paper(),
            BitRate::from_mbps(10.0),
        )
    }

    /// Dense sweep: the table must agree with the closed forms bit-for-bit
    /// on every probe, including points exactly on window-span boundaries.
    #[test]
    fn table_matches_closed_forms_on_dense_sweep() {
        let d = demand();
        let table = DemandTable::new(&d);
        let mut probes: Vec<Time> = Vec::new();
        // Exact span boundaries and their neighbourhoods.
        for k1 in 0..d.n_frames() {
            for k2 in 1..=d.n_frames() {
                let span = d.tsum_window(k1, k2);
                probes.push(span);
                probes.push(span + Time::from_micros(1.0));
                probes.push(span - Time::from_micros(1.0));
            }
        }
        // A fine sweep over several cycles.
        for i in 0..4000 {
            probes.push(Time::from_micros(50.0) * i);
        }
        probes.push(Time::ZERO);
        probes.push(Time::from_millis(-3.0));
        for t in probes {
            assert_eq!(table.mxs(t), d.mxs(t), "mxs at {t:?}");
            assert_eq!(table.nxs(t), d.nxs(t), "nxs at {t:?}");
            assert_eq!(table.mx(t), d.mx(t), "mx at {t:?}");
            assert_eq!(table.nx(t), d.nx(t), "nx at {t:?}");
        }
    }

    /// The largest representable window splices exactly as many whole
    /// cycles in the table as in the closed form.
    #[test]
    fn saturation_sentinels_match() {
        let d = demand();
        let table = DemandTable::new(&d);
        assert_eq!(table.mx(Time::MAX), d.mx(Time::MAX));
        assert_eq!(table.nx(Time::MAX), d.nx(Time::MAX));
        let cycles = Time::MAX.div_floor(d.tsum());
        assert!(table.mx(Time::MAX) >= d.csum() * cycles);
        assert!(table.nx(Time::MAX) >= d.nsum() * cycles);
    }

    /// Aggregate constants are copied bit-exactly from the demand.
    #[test]
    fn aggregates_are_copied() {
        let d = demand();
        let table = DemandTable::new(&d);
        assert_eq!(table.csum(), d.csum());
        assert_eq!(table.nsum(), d.nsum());
        assert_eq!(table.tsum(), d.tsum());
        // 3 frames -> at most 9 windows; ties collapse.
        assert!(table.n_windows() <= 9);
        assert!(table.n_windows() >= 1);
    }
}
