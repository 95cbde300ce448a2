package repro.dft

import repro.core.{CorrKernel, ExactCorrelation, IncrementalCorrelation, WindowStats}
import repro.core.ExactCorrelation.Terms

/** DFT-based approximate correlation (paper §2.2 and §3.2) — the
  * StatStream-family comparator TSUBASA is evaluated against.
  *
  * Normalization convention: x̂ = (x − μ)/(σ√B), which gives ‖x̂‖₂ = 1 and
  * makes Equation 3 exact: c = 1 − d²(x̂, ŷ)/2. (The paper leaves the √B
  * implicit; with plain z-scoring the identity is c = 1 − d²/(2B).) Under
  * this convention the pruning rule of Equation 4 reads
  * Corr ≥ θ ⟹ Dist_n ≤ √(2(1−θ)), a superset with no false negatives
  * because a coefficient-prefix distance never exceeds the full distance.
  */
object ApproxCorrelation {

  /** Normalized window (zero mean, unit L2 norm), the shared c_j kernel's
    * normalisation. A constant window maps to the zero vector; its σ
    * multiplies every use of the resulting distance in Eq 5, so the
    * convention is harmless.
    */
  def normalize(xs: Array[Double], s: WindowStats): Array[Double] = CorrKernel.normalize(xs, s)

  /** Per-window DFT sketch: coefficients of the normalized window. */
  final case class DftSketch(re: Array[Double], im: Array[Double])

  def sketchWindow(xs: Array[Double]): DftSketch = {
    val (re, im) = DFT.transform(normalize(xs, WindowStats.of(xs)))
    DftSketch(re, im)
  }

  /** Dist_n² of two windows' DFT sketches (first n coefficients). */
  def windowDistSq(x: DftSketch, y: DftSketch, nCoeff: Int): Double =
    DFT.prefixDistSq(x.re, x.im, y.re, y.im, nCoeff)

  /** Equation 3: correlation approximated from a normalized distance. */
  def corrFromDistSq(dSq: Double): Double = 1.0 - dSq / 2.0

  /** Equation 4 pruning predicate: keep the pair as a candidate edge when
    * the prefix distance cannot rule out Corr ≥ θ.
    */
  def candidateEdge(distN: Double, theta: Double): Boolean =
    distN <= math.sqrt(2.0 * math.max(0.0, 1.0 - theta))

  /** Equation 5 (combined with Eq 3): query-window correlation from
    * per-window statistics and per-window DFT distances — Lemma 1 with
    * c_i replaced by its DFT estimate 1 − d_i²/2. Exact when d_i² uses
    * all coefficients.
    */
  def eq5Corr(sx: IndexedSeq[WindowStats], sy: IndexedSeq[WindowStats],
              dSq: IndexedSeq[Double]): Double =
    ExactCorrelation.lemma1(sx, sy, dSq.map(corrFromDistSq))

  /** Lemma-1 terms under the DFT estimate — seed state for the incremental
    * Equation 6 path.
    */
  def eq5Terms(sx: IndexedSeq[WindowStats], sy: IndexedSeq[WindowStats],
               dSq: IndexedSeq[Double]): Terms =
    ExactCorrelation.terms(sx, sy, dSq.map(corrFromDistSq))

  /** Equation 6: incremental update of the approximate query-window
    * correlation when the window slides — Lemma 2 applied to the DFT
    * per-window correlation estimates.
    */
  def eq6Slide(st: Terms,
               evictX: WindowStats, evictY: WindowStats, dSqEvict: Double,
               addX: WindowStats, addY: WindowStats, dSqAdd: Double): Terms =
    IncrementalCorrelation.slide(st, evictX, evictY, corrFromDistSq(dSqEvict),
      addX, addY, corrFromDistSq(dSqAdd))

  /** The plain StatStream aggregation used for Figure 5a's red line: the
    * query-window correlation as the unweighted average of per-window
    * correlations (assumes window statistics match the query window).
    */
  def statStreamAverage(perWindowCorr: IndexedSeq[Double]): Double =
    perWindowCorr.sum / perWindowCorr.length
}
