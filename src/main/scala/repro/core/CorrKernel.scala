package repro.core

/** The per-window c_j kernel shared by the history sketch (Algorithm 1),
  * the real-time update (Algorithm 3) and arbitrary-range queries.
  *
  * Each window is normalised once, x̂ = (x − μ)/(σ√B), so ‖x̂‖₂ = 1 and
  * every c_j is the dot product x̂·ŷ (the Gram-matrix view of StatStream,
  * Zhu & Shasha, VLDB 2002). A constant window (σ = 0) maps to the zero
  * vector, so its c_j with anything is exactly 0, the convention of
  * [[WindowStats.pearson]]. The DFT comparator transforms the same x̂.
  *
  * Where many pairs share a window (one arriving window of every series),
  * the windows are normalised once and c_j is their Gram ([[gram]]). Where
  * a pair is met alone (the history sketch of one pair, the partial windows
  * of an arbitrary range), `corr` forms the same x̂·ŷ from the co-moment,
  * equal up to rounding.
  */
object CorrKernel {

  /** Writes x̂ of the window xs[from, from + s.size) to out[at, at + s.size). */
  def normalizeInto(xs: Array[Double], from: Int, s: WindowStats, out: Array[Double], at: Int): Unit = {
    val n = s.size
    if (s.std > 0.0) {
      val den = s.std * math.sqrt(n.toDouble)
      var k = 0
      while (k < n) { out(at + k) = (xs(from + k) - s.mean) / den; k += 1 }
    } else java.util.Arrays.fill(out, at, at + n, 0.0)
  }

  /** x̂ of a whole window given its sketch. */
  def normalize(xs: Array[Double], s: WindowStats): Array[Double] = {
    require(xs.length == s.size, s"window of ${xs.length} points, sketch of ${s.size}")
    val out = new Array[Double](xs.length)
    normalizeInto(xs, 0, s, out, 0)
    out
  }

  /** c_j of the aligned windows of x and y that start at `from`, given
    * their sketches (of equal size): x̂·ŷ = Σ(x − μx)(y − μy) / (B·σx·σy),
    * one pass.
    */
  def corr(x: Array[Double], y: Array[Double], from: Int, sx: WindowStats, sy: WindowStats): Double = {
    val n = sx.size
    var c = 0.0
    var k = from
    while (k < from + n) { c += (x(k) - sx.mean) * (y(k) - sy.mean); k += 1 }
    scaled(c, n, sx.std, sy.std)
  }

  /** c_j of the aligned windows x[from, from + n) and y[from, from + n)
    * from raw data, for callers that keep no sketch: one pass for both
    * means, one for both variances and the co-moment. The σ it uses are
    * those of [[WindowStats.of]].
    */
  def corr(x: Array[Double], y: Array[Double], from: Int, n: Int): Double = {
    var sx = 0.0; var sy = 0.0
    var k = from
    while (k < from + n) { sx += x(k); sy += y(k); k += 1 }
    val mx = sx / n; val my = sy / n
    var vx = 0.0; var vy = 0.0; var c = 0.0
    k = from
    while (k < from + n) {
      val dx = x(k) - mx; val dy = y(k) - my
      vx += dx * dx; vy += dy * dy; c += dx * dy
      k += 1
    }
    scaled(c, n, math.sqrt(vx / n), math.sqrt(vy / n))
  }

  /** x̂·ŷ from the co-moment Σ(x − μx)(y − μy); 0 for a constant window. */
  private def scaled(coMoment: Double, n: Int, stdX: Double, stdY: Double): Double =
    if (stdX == 0.0 || stdY == 0.0) 0.0 else coMoment / (n * stdX * stdY)

  /** c_j of every pair i < j of n normalised rows of length b held flat in
    * `rows` (row i at i·b), in upper-triangular pair order. Four pairs share
    * each pass over row i, so four independent sums overlap in the pipeline
    * (about 1.6× the one-pair loop at N = 157, B = 100 on a 4-core x86 host);
    * each pair's sum still runs in index order, so its value is unchanged.
    */
  def gram(rows: Array[Double], n: Int, b: Int): Array[Double] = {
    val out = new Array[Double](n * (n - 1) / 2)
    var p = 0
    var i = 0
    while (i < n) {
      val xi = i * b
      var j = i + 1
      while (j + 3 < n) {
        val y0 = j * b; val y1 = y0 + b; val y2 = y1 + b; val y3 = y2 + b
        var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
        var k = 0
        while (k < b) {
          val x = rows(xi + k)
          s0 += x * rows(y0 + k); s1 += x * rows(y1 + k); s2 += x * rows(y2 + k); s3 += x * rows(y3 + k)
          k += 1
        }
        out(p) = s0; out(p + 1) = s1; out(p + 2) = s2; out(p + 3) = s3
        p += 4; j += 4
      }
      while (j < n) {
        val y0 = j * b
        var s = 0.0
        var k = 0
        while (k < b) { s += rows(xi + k) * rows(y0 + k); k += 1 }
        out(p) = s
        p += 1; j += 1
      }
      i += 1
    }
    out
  }
}
