package repro.core

/** Lemma 1 — exact query-window Pearson correlation from basic-window
  * sketches, for basic windows of (possibly) unequal sizes.
  *
  * The paper states δ_{x_i} = x̄_i − (Σ_k x̄_k)/n_s; its proof, however,
  * uses δ relative to the query-window mean x̄, which for unequal window
  * sizes is the *size-weighted* mean Σ B_k x̄_k / T. The two agree when all
  * B_k are equal (the paper's experimental setting). We implement the
  * weighted form, which is exact for arbitrary B_k — verified against
  * direct Pearson in Lemma1Spec.
  */
object ExactCorrelation {

  /** Numerator and the two variance terms of Lemma 1; kept separate so the
    * incremental updater (Lemma 2) can evolve them without re-deriving.
    *
    * numerator = Σ_j B_j (σ_xj σ_yj c_j + δ_xj δ_yj) = T·cov(x, y)
    * tVarX     = Σ_j B_j (σ_xj² + δ_xj²)            = T·σ_x²
    */
  final case class Terms(t: Long, numerator: Double, tVarX: Double, tVarY: Double,
                         grandMeanX: Double, grandMeanY: Double) {
    /** Pearson correlation; 0 when either side is constant over the window. */
    def corr: Double = ExactCorrelation.corr(numerator, tVarX, tVarY)
  }

  /** Pearson correlation from T·cov and both T·σ²; 0 when either side is
    * constant over the window.
    */
  def corr(numerator: Double, tVarX: Double, tVarY: Double): Double =
    if (tVarX <= 0.0 || tVarY <= 0.0) 0.0
    else numerator / math.sqrt(tVarX * tVarY)

  /** Combine per-window sketches into Lemma 1 terms. */
  def terms(sx: IndexedSeq[WindowStats], sy: IndexedSeq[WindowStats], c: IndexedSeq[Double]): Terms = {
    require(sx.length == sy.length && sx.length == c.length && sx.nonEmpty,
      s"misaligned sketches: ${sx.length}/${sy.length}/${c.length}")
    var t = 0L; var smx = 0.0; var smy = 0.0
    var i = 0
    while (i < sx.length) {
      require(sx(i).size == sy(i).size, s"window $i sizes differ")
      t += sx(i).size; smx += sx(i).size * sx(i).mean; smy += sy(i).size * sy(i).mean
      i += 1
    }
    val gmx = smx / t; val gmy = smy / t
    var num = 0.0; var vx = 0.0; var vy = 0.0
    i = 0
    while (i < sx.length) {
      val b = sx(i).size
      val dx = sx(i).mean - gmx; val dy = sy(i).mean - gmy
      num += b * (sx(i).std * sy(i).std * c(i) + dx * dy)
      vx += b * (sx(i).variance + dx * dx)
      vy += b * (sy(i).variance + dy * dy)
      i += 1
    }
    Terms(t, num, vx, vy, gmx, gmy)
  }

  /** Lemma 1: exact Pearson correlation of the query window spanned by the
    * given aligned basic-window sketches.
    */
  def lemma1(sx: IndexedSeq[WindowStats], sy: IndexedSeq[WindowStats], c: IndexedSeq[Double]): Double =
    terms(sx, sy, c).corr

  /** Exact correlation on an *arbitrary* query range [start, end] (0-based,
    * inclusive) of two raw series sketched with equal basic windows of size
    * b. Full windows inside the range use pre-computed sketches; the
    * partial head/tail windows are sketched from raw data at query time
    * (§3.1.1's κ/χ decomposition).
    *
    * @param sketchX  pre-computed per-window sketches of x (aligned to b)
    * @param pairC    pre-computed per-window c_j of (x, y)
    */
  def arbitrary(x: Array[Double], y: Array[Double], b: Int,
                sketchX: Array[WindowStats], sketchY: Array[WindowStats],
                pairC: Array[Double], start: Int, end: Int): Double = {
    val cov = BasicWindows.coverage(start, end, b)
    val sx = IndexedSeq.newBuilder[WindowStats]
    val sy = IndexedSeq.newBuilder[WindowStats]
    val cs = IndexedSeq.newBuilder[Double]
    def addRaw(lo: Int, hi: Int): Unit = {
      val wx = WindowStats.of(x, lo, hi - lo + 1); val wy = WindowStats.of(y, lo, hi - lo + 1)
      sx += wx; sy += wy; cs += CorrKernel.corr(x, y, lo, wx, wy)
    }
    cov.headRange.foreach { case (lo, hi) => addRaw(lo, hi) }
    cov.fullWindows.foreach { w => sx += sketchX(w); sy += sketchY(w); cs += pairC(w) }
    cov.tailRange.foreach { case (lo, hi) => addRaw(lo, hi) }
    lemma1(sx.result(), sy.result(), cs.result())
  }

  /** Direct Pearson over a raw range — the paper's baseline (Equation 1). */
  def direct(x: Array[Double], y: Array[Double]): Double = WindowStats.pearson(x, y)

  /** Dense-array Lemma 1 for equal-size basic windows — the query-time
    * hot path of the in-memory benchmarks (no boxing, single fold over
    * windows [from, until) of pre-computed per-series stats and per-pair
    * correlations). Same algebraic expansion as the Catalyst aggregation
    * in SparkExact.
    */
  def lemma1Dense(meanX: Array[Double], stdX: Array[Double],
                  meanY: Array[Double], stdY: Array[Double],
                  c: Array[Double], from: Int, until: Int): Double = {
    val k = until - from
    var smx = 0.0; var smy = 0.0; var smxy = 0.0; var smx2 = 0.0; var smy2 = 0.0
    var scov = 0.0; var svx = 0.0; var svy = 0.0
    var i = from
    while (i < until) {
      val mx = meanX(i); val my = meanY(i)
      smx += mx; smy += my; smxy += mx * my; smx2 += mx * mx; smy2 += my * my
      scov += stdX(i) * stdY(i) * c(i); svx += stdX(i) * stdX(i); svy += stdY(i) * stdY(i)
      i += 1
    }
    val num = scov + smxy - smx * smy / k
    val vx = svx + smx2 - smx * smx / k
    val vy = svy + smy2 - smy * smy / k
    if (vx <= 0.0 || vy <= 0.0) 0.0 else num / math.sqrt(vx * vy)
  }

  /** One-pass direct Pearson over the raw range [from, until) — the
    * baseline's query-time scan, without slice copies.
    */
  def directRange(x: Array[Double], y: Array[Double], from: Int, until: Int): Double = {
    val n = (until - from).toDouble
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = from
    while (i < until) {
      val xv = x(i); val yv = y(i)
      sx += xv; sy += yv; sxx += xv * xv; syy += yv * yv; sxy += xv * yv
      i += 1
    }
    val cov = sxy - sx * sy / n
    val vx = sxx - sx * sx / n
    val vy = syy - sy * sy / n
    if (vx <= 0.0 || vy <= 0.0) 0.0 else cov / math.sqrt(vx * vy)
  }
}
