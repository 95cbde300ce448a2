package repro.dft

import repro.core.{SlidingNetwork, WindowStats}
import repro.dft.ApproxCorrelation.DftSketch

/** All-pair sliding-window state for the DFT comparator (§3.2.2,
  * Equation 6): [[repro.core.SlidingNetwork]] with each window's c_j
  * estimated as 1 − d²/2 from the first `nCoeff` DFT coefficients, so the
  * engine's Lemma-2 slide is Eq 6. Each arriving basic window pays the
  * O(B²) DFT per series plus O(nCoeff) per pair for prefix distances.
  *
  * @param nSeries  number of series
  * @param nWindows n_s windows in the sliding query window
  * @param nCoeff   DFT coefficients used for per-window distances
  */
final class SlidingApproxNetwork(nSeries: Int, nWindows: Int, val nCoeff: Int)
    extends SlidingNetwork(nSeries, nWindows) {
  require(nCoeff >= 1)

  override protected def windowCorrs(windows: Array[Array[Double]], stats: Array[WindowStats]): Array[Double] = {
    val b = windows(0).length
    require(nCoeff <= b, s"nCoeff=$nCoeff exceeds window size $b")
    val sketches = Array.tabulate(windows.length) { i =>
      val (re, im) = DFT.transform(ApproxCorrelation.normalize(windows(i), stats(i)))
      DftSketch(re, im)
    }
    pairwise((i, j) => ApproxCorrelation.corrFromDistSq(
      ApproxCorrelation.windowDistSq(sketches(i), sketches(j), nCoeff)))
  }
}
