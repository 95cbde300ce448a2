package repro.core

import repro.core.ExactCorrelation.Terms

/** Lemma 2 — incremental update of the query-window correlation when the
  * sliding window advances by one basic window (evict the oldest, append
  * the newest).
  *
  * All deltas are taken w.r.t. the *old* window's (size-weighted) grand
  * mean; the new grand mean shifts by α = (B_new·δ_new − B_old·δ_old)/T'
  * (the paper divides by T — a typo that is immaterial in its equal-size
  * experiments where T' = T; Lemma2Spec validates the T' form against
  * from-scratch recomputation for unequal sizes too).
  *
  * The update splits into a per-series step ([[seriesStep]]: both δ, α,
  * the new T·σ² and grand mean) and a per-pair step on the numerator
  * T·cov alone ([[numeratorStep]]); T·σ² is the numerator of a series
  * with itself, so both use the same expansion. [[slide]] and [[append]]
  * compose the two steps on [[Terms]]; [[SlidingNetwork]] runs them over
  * flat per-series and per-pair arrays.
  */
object IncrementalCorrelation {

  /** One series' part of a Lemma-2 step.
    *
    * @param dEvict    δ of the evicted window w.r.t. the old grand mean
    * @param dAdd      δ of the arriving window w.r.t. the old grand mean
    * @param alpha     α, the shift of the grand mean
    * @param tVar      T'·σ² of the advanced query window
    * @param grandMean grand mean of the advanced query window
    */
  final case class SeriesStep(dEvict: Double, dAdd: Double, alpha: Double, tVar: Double, grandMean: Double)

  /** The evicted window of the append case: B_old = 0 and δ = 0, which
    * reduces Lemma 2 to the grow-only form exactly.
    */
  def absent(grandMean: Double): WindowStats = WindowStats(0, grandMean, 0.0)

  /** Per-series step of Lemma 2.
    *
    * @param tNew      T' = T − B_old + B_new, the advanced window's size
    * @param grandMean grand mean of the current query window
    * @param tVar      T·σ² of the current query window
    * @param evict     sketch of the evicted window ([[absent]] when appending)
    * @param add       sketch of the arriving window
    */
  def seriesStep(tNew: Long, grandMean: Double, tVar: Double, evict: WindowStats, add: WindowStats): SeriesStep = {
    val bOld = evict.size.toDouble
    val bNew = add.size.toDouble
    val t = tNew.toDouble
    val d1 = evict.mean - grandMean
    val dn = add.mean - grandMean
    val a = (bNew * dn - bOld * d1) / t
    SeriesStep(d1, dn, a,
      numeratorStep(tVar, bOld, evict.std, evict.std, 1.0, d1, d1, bNew, add.std, add.std, 1.0, dn, dn, t, a, a),
      grandMean + a)
  }

  /** Per-pair step of Lemma 2: the numerator T·cov(x, y) of the advanced
    * window from the current one. The δ and α arguments come from each
    * series' [[seriesStep]]; c is the per-window correlation.
    */
  def numeratorStep(num: Double,
                    bOld: Double, sdEvictX: Double, sdEvictY: Double, cEvict: Double,
                    dEvictX: Double, dEvictY: Double,
                    bNew: Double, sdAddX: Double, sdAddY: Double, cAdd: Double,
                    dAddX: Double, dAddY: Double,
                    tNew: Double, alphaX: Double, alphaY: Double): Double =
    num +
      bNew * (sdAddX * sdAddY * cAdd + dAddX * dAddY) -
      bOld * (sdEvictX * sdEvictY * cEvict + dEvictX * dEvictY) -
      tNew * alphaX * alphaY

  /** Slide the Lemma-1 terms one basic window forward.
    *
    * @param st     terms of the current query window (time t)
    * @param evictX sketch of the evicted (oldest) basic window of x
    * @param evictY sketch of the evicted basic window of y
    * @param cEvict c_1: per-window correlation of the evicted windows
    * @param addX   sketch of the arriving basic window of x
    * @param addY   sketch of the arriving basic window of y
    * @param cAdd   c_{n_s+1}: correlation of the arriving windows
    * @return       terms of the advanced query window (time t + B_new)
    */
  def slide(st: Terms,
            evictX: WindowStats, evictY: WindowStats, cEvict: Double,
            addX: WindowStats, addY: WindowStats, cAdd: Double): Terms = {
    require(evictX.size == evictY.size && addX.size == addY.size, "window sizes must align across series")
    val tNew = st.t - evictX.size + addX.size
    val sx = seriesStep(tNew, st.grandMeanX, st.tVarX, evictX, addX)
    val sy = seriesStep(tNew, st.grandMeanY, st.tVarY, evictY, addY)
    val num = numeratorStep(st.numerator,
      evictX.size, evictX.std, evictY.std, cEvict, sx.dEvict, sy.dEvict,
      addX.size, addX.std, addY.std, cAdd, sx.dAdd, sy.dAdd,
      tNew.toDouble, sx.alpha, sy.alpha)
    Terms(tNew, num, sx.tVar, sy.tVar, sx.grandMean, sy.grandMean)
  }

  /** Grow-only variant: append a new basic window without evicting (used
    * when bootstrapping a sliding window until it reaches n_s windows).
    * Lemma 2 with B_old = 0.
    */
  def append(st: Terms, addX: WindowStats, addY: WindowStats, cAdd: Double): Terms =
    slide(st, absent(st.grandMeanX), absent(st.grandMeanY), 0.0, addX, addY, cAdd)
}
