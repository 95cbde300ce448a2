package repro.core

/** Helpers for splitting raw series into basic windows (paper §2.2).
  *
  * The default split is the paper's equal-size model: a series of length
  * L yields floor(L/B) windows of exactly B points (a trailing remainder
  * shorter than B is dropped, matching the paper's "the algorithm waits
  * until all new B data points arrive").
  */
object BasicWindows {

  /** Equal-size split; drops a trailing partial window. */
  def split(xs: Array[Double], b: Int): Array[Array[Double]] = {
    require(b > 0, "basic window size must be positive")
    val n = xs.length / b
    Array.tabulate(n)(j => java.util.Arrays.copyOfRange(xs, j * b, (j + 1) * b))
  }

  /** Sketches of every equal-size basic window of one series. */
  def sketch(xs: Array[Double], b: Int): Array[WindowStats] = {
    require(b > 0, "basic window size must be positive")
    Array.tabulate(xs.length / b)(j => WindowStats.of(xs, j * b, b))
  }

  /** Per-pair per-window correlations c_j for aligned equal-size windows. */
  def pairCorrs(x: Array[Double], y: Array[Double], b: Int): Array[Double] = {
    require(b > 0, "basic window size must be positive")
    val n = x.length / b
    require(n == y.length / b, "series must have equal length")
    Array.tabulate(n)(j => CorrKernel.corr(x, y, j * b, b))
  }

  /** Ids of the basic windows fully covered by a query over [start, end]
    * (0-based inclusive raw indices), plus the partial ranges at each end.
    * Mirrors the κ/χ construction in §3.1.1: the query window is decomposed
    * into (partial head, full windows, partial tail).
    */
  final case class Coverage(headRange: Option[(Int, Int)], fullWindows: Range, tailRange: Option[(Int, Int)])

  def coverage(start: Int, end: Int, b: Int): Coverage = {
    require(start >= 0 && end >= start, s"bad query range [$start,$end]")
    val firstFull = if (start % b == 0) start / b else start / b + 1
    val lastFull  = (end + 1) / b - 1 // window w covers [w*b, (w+1)*b-1]
    if (firstFull > lastFull) {
      // query falls inside fewer than one aligned window: single head range
      Coverage(Some((start, end)), Range(0, 0), None)
    } else {
      val head = if (start < firstFull * b) Some((start, firstFull * b - 1)) else None
      val tail = if (end > (lastFull + 1) * b - 1) Some(((lastFull + 1) * b, end)) else None
      Coverage(head, Range(firstFull, lastFull + 1), tail)
    }
  }
}
