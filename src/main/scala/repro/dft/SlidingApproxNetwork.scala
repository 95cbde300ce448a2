package repro.dft

import repro.core.SlidingNetwork
import repro.dft.ApproxCorrelation.DftSketch

/** All-pair sliding-window state for the DFT comparator (§3.2.2,
  * Equation 6): [[repro.core.SlidingNetwork]] with each window's c_j
  * estimated as 1 − d²/2 from the first `nCoeff` DFT coefficients, so the
  * engine's Lemma-2 slide is Eq 6. Each arriving basic window pays the
  * O(B²) DFT of each series' normalised window, which the engine hands
  * over, plus O(nCoeff) per pair for prefix distances.
  *
  * @param nSeries  number of series
  * @param nWindows n_s windows in the sliding query window
  * @param nCoeff   DFT coefficients used for per-window distances
  */
final class SlidingApproxNetwork(nSeries: Int, nWindows: Int, val nCoeff: Int)
    extends SlidingNetwork(nSeries, nWindows) {
  require(nCoeff >= 1)

  override protected def windowCorrs(rows: Array[Double], b: Int): Array[Double] = {
    require(nCoeff <= b, s"nCoeff=$nCoeff exceeds window size $b")
    val sketches = Array.tabulate(nSeries) { i =>
      val (re, im) = DFT.transform(java.util.Arrays.copyOfRange(rows, i * b, (i + 1) * b))
      DftSketch(re, im)
    }
    val out = new Array[Double](nSeries * (nSeries - 1) / 2)
    var p = 0
    for (i <- 0 until nSeries; j <- i + 1 until nSeries) {
      out(p) = ApproxCorrelation.corrFromDistSq(ApproxCorrelation.windowDistSq(sketches(i), sketches(j), nCoeff))
      p += 1
    }
    out
  }
}
