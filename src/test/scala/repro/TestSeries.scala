package repro

/** Deterministic test-series generators plus an *independent* Pearson
  * reference (sum-based formula, distinct code path from
  * `WindowStats.pearson`) so the production math is checked against a
  * second implementation, not itself.
  */
object TestSeries {

  def gaussian(len: Int, seed: Long): Array[Double] = {
    val r = new scala.util.Random(seed)
    Array.fill(len)(r.nextGaussian())
  }

  /** Pair with approximate target correlation rho. */
  def correlatedPair(len: Int, seed: Long, rho: Double): (Array[Double], Array[Double]) = {
    val r = new scala.util.Random(seed)
    val x = Array.fill(len)(r.nextGaussian())
    val y = x.map(v => rho * v + math.sqrt(1 - rho * rho) * r.nextGaussian())
    (x, y)
  }

  def sinusoid(len: Int, period: Double, phase: Double, noise: Double, seed: Long): Array[Double] = {
    val r = new scala.util.Random(seed)
    Array.tabulate(len)(t => math.sin(2 * math.Pi * t / period + phase) + noise * r.nextGaussian())
  }

  def trended(len: Int, slope: Double, noise: Double, seed: Long): Array[Double] = {
    val r = new scala.util.Random(seed)
    Array.tabulate(len)(t => slope * t + noise * r.nextGaussian())
  }

  def constant(len: Int, v: Double): Array[Double] = Array.fill(len)(v)

  /** Named families used by the grid-driven specs. */
  val families: Seq[(String, (Int, Long) => (Array[Double], Array[Double]))] = Seq(
    "gaussian-independent" -> ((len, seed) => (gaussian(len, seed), gaussian(len, seed + 1))),
    "strongly-correlated" -> ((len, seed) => correlatedPair(len, seed, 0.9)),
    "anti-correlated" -> ((len, seed) => correlatedPair(len, seed, -0.8)),
    "seasonal" -> ((len, seed) =>
      (sinusoid(len, 37.0, 0.0, 0.3, seed), sinusoid(len, 37.0, 0.4, 0.3, seed + 1))),
    "trended" -> ((len, seed) => (trended(len, 0.05, 1.0, seed), trended(len, -0.03, 1.0, seed + 1))),
    "mixed-scale" -> ((len, seed) =>
      (gaussian(len, seed).map(v => 1e4 * v + 5e4), gaussian(len, seed + 7).map(v => 1e-3 * v - 2))),
  )

  /** Independent Pearson reference via raw power sums. */
  def refPearson(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length && x.length > 0)
    val n = x.length.toDouble
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < x.length) {
      sx += x(i); sy += y(i); sxx += x(i) * x(i); syy += y(i) * y(i); sxy += x(i) * y(i)
      i += 1
    }
    val cov = sxy / n - (sx / n) * (sy / n)
    val vx = sxx / n - (sx / n) * (sx / n)
    val vy = syy / n - (sy / n) * (sy / n)
    if (vx <= 0 || vy <= 0) 0.0 else cov / math.sqrt(vx * vy)
  }

  /** Independent centred two-pass Pearson reference: both means first,
    * then the co-moment and both variances about them. Unlike the
    * power-sum form of `refPearson` it does not cancel at large offsets.
    */
  def centredPearson(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length && x.length > 0)
    val n = x.length
    var sx = 0.0; var sy = 0.0
    var i = 0
    while (i < n) { sx += x(i); sy += y(i); i += 1 }
    val mx = sx / n; val my = sy / n
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    i = 0
    while (i < n) {
      val dx = x(i) - mx; val dy = y(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx <= 0 || syy <= 0) 0.0 else sxy / math.sqrt(sxx * syy)
  }
}
