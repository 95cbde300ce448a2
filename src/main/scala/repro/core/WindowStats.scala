package repro.core

/** Sketch of one basic window of one time-series (paper §3.1, Algorithm 1).
  *
  * TSUBASA stores, per basic window, its size, mean and *population*
  * standard deviation (the 1/B normalization is what makes Lemma 1's
  * algebra exact; sample-vs-population cancels in the final correlation).
  *
  * @param size number of raw points in the window (B_j)
  * @param mean arithmetic mean of the window
  * @param std  population standard deviation (sqrt of the 1/B_j variance)
  */
final case class WindowStats(size: Int, mean: Double, std: Double) {
  /** Population variance of the window. */
  def variance: Double = std * std
}

object WindowStats {

  /** Sketch of a raw basic window. */
  def of(xs: Array[Double]): WindowStats = of(xs, 0, xs.length)

  /** Sketch of the window xs[from, from + n), read in place. */
  def of(xs: Array[Double], from: Int, n: Int): WindowStats = {
    require(n > 0, "empty basic window")
    var s = 0.0
    var i = from
    while (i < from + n) { s += xs(i); i += 1 }
    val mean = s / n
    var v = 0.0
    i = from
    while (i < from + n) { val d = xs(i) - mean; v += d * d; i += 1 }
    WindowStats(n, mean, math.sqrt(v / n))
  }

  /** Pearson correlation of two aligned raw windows (the per-window c_j of
    * Algorithm 1, and also the "direct from raw data" baseline measure).
    * Windows with zero variance on either side have zero covariance with
    * anything; we define c = 0 there so Lemma 1's σ·σ·c product stays exact.
    */
  def pearson(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length && x.length > 0, "windows must align")
    val sx = of(x); val sy = of(y)
    if (sx.std == 0.0 || sy.std == 0.0) 0.0
    else covariance(x, y, sx, sy) / (sx.std * sy.std)
  }

  /** Population covariance of two aligned windows given their sketches. */
  def covariance(x: Array[Double], y: Array[Double], sx: WindowStats, sy: WindowStats): Double = {
    val n = x.length
    var c = 0.0
    var i = 0
    while (i < n) { c += (x(i) - sx.mean) * (y(i) - sy.mean); i += 1 }
    c / n
  }
}
