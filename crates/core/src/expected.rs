//! Expected supports of candidate negative itemsets (paper §2.1.1).
//!
//! All three generation cases share one shape: the candidate is a large
//! itemset `l` with some members replaced, and
//!
//! ```text
//! E[sup(candidate)] = sup(l) · Π over replaced positions  sup(new) / sup(old)
//! ```
//!
//! * **Case 1** — every member replaced by one of its children; `old` is
//!   the replaced member itself (the parent of `new`):
//!   `E[sup(D,J)] = sup(C,G) · sup(D)/sup(C) · sup(J)/sup(G)`.
//! * **Case 2** — a proper nonempty subset of members replaced by children;
//!   same per-position factor.
//! * **Case 3** — a proper nonempty subset replaced by *siblings*; the
//!   factor is `sup(sibling)/sup(replaced member)`:
//!   `E[sup(C,H)] = sup(C,G) · sup(H)/sup(G)`.
//!
//! The uniformity assumption justifying all three: items under the same
//! parent are expected to associate with other items the way their parent
//! (or sibling) does, scaled by their relative support.
//!
//! # Float-comparison contract
//!
//! Expected supports, deviations and rule-interest values are `f64`
//! products/quotients of `u64` counts. Two mathematically equal quantities
//! can differ in the last bits depending on evaluation order (e.g. the
//! naive and improved drivers multiply ratios in different groupings), so
//! **raw `==`/`!=`/`>=` on these values is a bug** — it makes
//! rule emission depend on the driver. All threshold decisions go through
//! [`approx_eq`]/[`approx_ge`], which treat values within
//! [`SUPPORT_EPSILON`] (scaled by magnitude) as equal. The workspace
//! analyzer enforces this: lint L002 flags raw float comparisons on
//! support expressions (`cargo run -p xtask -- analyze`).

use crate::error::NegAssocError;

/// Relative tolerance for support/RI comparisons.
///
/// Supports are ≤ 2^53 (exact in `f64`), and expectation chains multiply a
/// handful of ratios, so accumulated relative error is well under 1e-12;
/// 1e-9 gives three orders of margin while staying far below any
/// paper-meaningful support difference.
pub const SUPPORT_EPSILON: f64 = 1e-9;

/// The comparison scale for `a` vs `b`: max(1, |a|, |b|).
///
/// Keeps the tolerance relative for large supports (millions of
/// transactions) without collapsing to zero for sub-1 values such as
/// rule-interest thresholds.
fn comparison_scale(a: f64, b: f64) -> f64 {
    a.abs().max(b.abs()).max(1.0)
}

/// `true` when `a` and `b` are equal up to [`SUPPORT_EPSILON`], scaled by
/// magnitude. This is the only sanctioned equality on support/RI values.
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= SUPPORT_EPSILON * comparison_scale(a, b)
}

/// `true` when `a >= b` up to [`SUPPORT_EPSILON`] slack: values within the
/// tolerance band count as "reaching" the threshold. This is the sanctioned
/// form of every `deviation >= threshold` / `ri >= min_ri` test.
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b - SUPPORT_EPSILON * comparison_scale(a, b)
}

/// One replacement's contribution: the new item's support over the support
/// of whatever it was derived from (its parent for child-replacements, the
/// replaced member for sibling-replacements).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Support of the item placed into the candidate.
    pub new_support: u64,
    /// Support of the item it scales against (> 0 for any large item).
    pub base_support: u64,
}

impl Ratio {
    /// `new_support / base_support`, the factor this replacement applies
    /// to the expectation.
    pub fn factor(self) -> f64 {
        support_to_f64(self.new_support) / support_to_f64(self.base_support)
    }
}

/// Expected support of a candidate derived from a large itemset with
/// support `large_support` by applying `replacements`.
///
/// Every `base_support` should be the support of a large item and hence
/// positive; a zero base is a caller bug and yields
/// [`NegAssocError::Numeric`] instead of silently poisoning downstream
/// pruning with `NaN`/`inf`.
///
/// ```
/// use negassoc::expected::{expected_support, Ratio};
/// // E[sup(D,J)] = sup(C,G) * sup(D)/sup(C) * sup(J)/sup(G)
/// let e = expected_support(800, &[
///     Ratio { new_support: 1200, base_support: 2500 },
///     Ratio { new_support: 900, base_support: 2000 },
/// ]).unwrap();
/// assert!((e - 172.8).abs() < 1e-9);
/// ```
pub fn expected_support(large_support: u64, replacements: &[Ratio]) -> Result<f64, NegAssocError> {
    if let Some(r) = replacements.iter().find(|r| r.base_support == 0) {
        return Err(NegAssocError::Numeric(format!(
            "expected_support: zero base support scaling new support {} \
             (bases must be supports of large items)",
            r.new_support
        )));
    }
    let e = replacements
        .iter()
        .fold(support_to_f64(large_support), |e, r| e * r.factor());
    if !e.is_finite() {
        return Err(NegAssocError::Numeric(format!(
            "expected_support: non-finite expectation from large support \
             {large_support} over {} replacements",
            replacements.len()
        )));
    }
    Ok(e)
}

/// The sanctioned support-count → `f64` conversion. Transaction counts are
/// far below 2^53, so the conversion is exact; funnelling every widening
/// through here keeps the L005 lint surface to this one module.
pub fn support_to_f64(support: u64) -> f64 {
    support as f64
}

/// The candidate-admission threshold of §2: a candidate is worth counting
/// only when its expected support is at least `MinSup · MinRI` — otherwise
/// even an actual support of zero cannot produce a rule with interest
/// `MinRI` (the RI numerator is capped by `E` and every antecedent has
/// support ≥ `MinSup`).
pub fn candidate_threshold(min_support_count: u64, min_ri: f64) -> f64 {
    min_support_count as f64 * min_ri
}

/// The negativity test of §2: a counted candidate is a *negative itemset*
/// when its actual support deviates from the expectation by at least
/// `MinSup · MinRI` (compared through [`approx_ge`]; see the module-level
/// float-comparison contract).
///
/// (Figure 3 of the paper prints the condition as `count < MinSup · MinRI`,
/// which contradicts the problem statement and the worked example; see
/// DESIGN.md "Paper ambiguities".)
pub fn is_negative(expected: f64, actual: u64, min_support_count: u64, min_ri: f64) -> bool {
    approx_ge(
        expected - actual as f64,
        candidate_threshold(min_support_count, min_ri),
    )
}

/// Rule interest of `X ≠> Y` for a negative itemset with the given expected
/// and actual supports and antecedent support `sup(X)`.
///
/// A zero antecedent support is a caller bug (antecedents are large);
/// yields [`NegAssocError::Numeric`] rather than `NaN`/`inf`. Compare the
/// returned interest against thresholds with [`approx_ge`], never raw
/// `>=` (module-level contract).
pub fn rule_interest(
    expected: f64,
    actual: u64,
    antecedent_support: u64,
) -> Result<f64, NegAssocError> {
    if antecedent_support == 0 {
        return Err(NegAssocError::Numeric(
            "rule_interest: zero antecedent support (antecedents must be large)".into(),
        ));
    }
    Ok((expected - actual as f64) / antecedent_support as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_formula_case1() {
        // E[sup(D,J)] = sup(CG)·sup(D)/sup(C)·sup(J)/sup(G)
        // with sup(CG)=100, D/C = 40/80, J/G = 30/60 -> 100·0.5·0.5 = 25.
        let e = expected_support(
            100,
            &[
                Ratio {
                    new_support: 40,
                    base_support: 80,
                },
                Ratio {
                    new_support: 30,
                    base_support: 60,
                },
            ],
        )
        .unwrap();
        assert!((e - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unified_formula_case2_and_3_single_replacement() {
        // Case 2: E[sup(C,J)] = sup(CG)·sup(J)/sup(G).
        let e = expected_support(
            100,
            &[Ratio {
                new_support: 30,
                base_support: 60,
            }],
        )
        .unwrap();
        assert!((e - 50.0).abs() < 1e-12);
        // Case 3 has the same arithmetic with sibling/original supports.
        let e3 = expected_support(
            100,
            &[Ratio {
                new_support: 90,
                base_support: 60,
            }],
        )
        .unwrap();
        assert!((e3 - 150.0).abs() < 1e-12);
    }

    #[test]
    fn no_replacements_is_identity() {
        assert_eq!(expected_support(42, &[]).unwrap(), 42.0);
    }

    #[test]
    fn zero_base_support_is_an_explicit_error() {
        let err = expected_support(
            100,
            &[Ratio {
                new_support: 30,
                base_support: 0,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NegAssocError::Numeric(_)));
        assert!(err.to_string().contains("zero base support"));
    }

    #[test]
    fn zero_antecedent_support_is_an_explicit_error() {
        let err = rule_interest(100.0, 10, 0).unwrap_err();
        assert!(matches!(err, NegAssocError::Numeric(_)));
    }

    #[test]
    fn approx_helpers_honor_the_contract() {
        // Exact equality and tiny perturbations both count as equal.
        assert!(approx_eq(2000.0, 2000.0));
        assert!(approx_eq(2000.0, 2000.0 + 1e-7));
        assert!(!approx_eq(2000.0, 2000.1));
        // Scale-relative: large supports tolerate proportionally more.
        assert!(approx_eq(4.0e12, 4.0e12 + 1.0));
        // approx_ge admits values a hair under the threshold...
        assert!(approx_ge(2000.0 - 1e-7, 2000.0));
        assert!(approx_ge(2500.0, 2000.0));
        // ...but not genuinely smaller ones.
        assert!(!approx_ge(1999.0, 2000.0));
        // Sub-1 thresholds (RI comparisons) still behave.
        assert!(approx_ge(0.5, 0.5));
        assert!(!approx_ge(0.4999, 0.5));
    }

    #[test]
    fn paper_table2_with_corrected_water_supports() {
        // Worked example of §2.1.3 (Evian/Perrier supports 12000/8000 per
        // the reconstruction in DESIGN.md): expected supports 6000, 4000,
        // 3000, 2000.
        let fy_bw = 15_000;
        let (b, hc, fy) = (20_000u64, 10_000u64, 30_000u64);
        let (e, p, bw) = (12_000u64, 8_000u64, 20_000u64);
        let cases = [
            (b, e, 6_000.0),
            (b, p, 4_000.0),
            (hc, e, 3_000.0),
            (hc, p, 2_000.0),
        ];
        for (brand, water, want) in cases {
            let got = expected_support(
                fy_bw,
                &[
                    Ratio {
                        new_support: brand,
                        base_support: fy,
                    },
                    Ratio {
                        new_support: water,
                        base_support: bw,
                    },
                ],
            )
            .unwrap();
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn negativity_threshold() {
        // minsup 4000, minRI 0.5 -> threshold 2000.
        assert_eq!(candidate_threshold(4000, 0.5), 2000.0);
        // Bryers & Perrier: E 4000, actual 500 -> deviation 3500, negative.
        assert!(is_negative(4000.0, 500, 4000, 0.5));
        // Healthy Choice & Perrier: E 2000, actual 2500 -> not negative.
        assert!(!is_negative(2000.0, 2500, 4000, 0.5));
        // Deviation exactly at threshold counts.
        assert!(is_negative(2500.0, 500, 4000, 0.5));
        // Just below does not.
        assert!(!is_negative(2499.0, 500, 4000, 0.5));
    }

    #[test]
    fn rule_interest_is_deviation_over_antecedent() {
        let ri = rule_interest(4000.0, 500, 8000).unwrap();
        assert!((ri - 0.4375).abs() < 1e-12);
        let ri2 = rule_interest(4000.0, 500, 20000).unwrap();
        assert!((ri2 - 0.175).abs() < 1e-12);
        // Zero actual support maximizes RI.
        assert!(rule_interest(4000.0, 0, 8000).unwrap() > ri);
    }
}
