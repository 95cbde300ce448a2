package repro.core

import repro.core.ExactCorrelation.Terms

/** All-pair sliding-window correlation state for real-time data
  * (Algorithm 3). Holds a ring of the last n_s basic windows (each slot one
  * window's sketches of every series and its c_j of every pair) plus the
  * Lemma-1 terms of the current query window per pair; `ingest` advances
  * every pair via Lemma 2.
  *
  * The per-window c_j estimate is the only variation point: this class uses
  * the exact c_j, the Gram of the normalised windows ([[CorrKernel]]);
  * [[repro.dft.SlidingApproxNetwork]] overrides
  * [[windowCorrs]] with the DFT estimate 1 − d²/2, which makes the same
  * Lemma-2 slide the paper's Equation 6.
  *
  * Pairs are stored flat in upper-triangular order: pair (i, j), i < j, at
  * index i·n − i(i+1)/2 + (j − i − 1).
  *
  * @param nSeries  number of time-series (network nodes)
  * @param nWindows n_s: number of basic windows in the sliding query window
  */
class SlidingNetwork(val nSeries: Int, val nWindows: Int) {
  require(nSeries >= 2 && nWindows >= 1)

  private val nPairs = nSeries * (nSeries - 1) / 2
  // Every series and pair evicts at the same moment, so one ring position
  // serves them all; when the ring is full, `next` is the oldest slot.
  private val statsRing = new Array[Array[WindowStats]](nWindows)
  private val corrRing = new Array[Array[Double]](nWindows)
  private var next = 0
  private var held = 0
  private val pairTerms: Array[Terms] = new Array[Terms](nPairs)

  /** Flat index of pair (i, j) with i < j. */
  def pairIndex(i: Int, j: Int): Int = {
    require(0 <= i && i < j && j < nSeries, s"bad pair ($i,$j)")
    i * nSeries - i * (i + 1) / 2 + (j - i - 1)
  }

  /** Number of basic windows currently held. */
  def size: Int = held

  /** True once the sliding window holds n_s basic windows. */
  def full: Boolean = size == nWindows

  /** Per-window step: the c_j of every pair, in pair-index order, for one
    * arriving basic window per series, given as the normalised rows x̂
    * (row i at i·b of `rows`; see [[CorrKernel]]). Exact c_j is their Gram.
    */
  protected def windowCorrs(rows: Array[Double], b: Int): Array[Double] =
    CorrKernel.gram(rows, nSeries, b)

  /** Feed one basic window of raw data for every series. Until the window
    * count reaches n_s this grows the query window (Lemma 2's append
    * special case); afterwards it slides (evict oldest + add newest).
    * Each series' window is sketched and normalised once (O(N·B)); the
    * per-window c_j step follows, and the per-pair cost after it is O(1),
    * the point of Lemma 2.
    *
    * @param windows raw basic window per series, all of equal length
    */
  def ingest(windows: Array[Array[Double]]): Unit = {
    require(windows.length == nSeries, s"expected $nSeries windows, got ${windows.length}")
    val b = windows(0).length
    require(windows.forall(_.length == b), "all series must deliver equal-size basic windows")
    val stats = windows.map(WindowStats.of)
    val rows = new Array[Double](nSeries * b)
    for (i <- 0 until nSeries) CorrKernel.normalizeInto(windows(i), 0, stats(i), rows, i * b)
    val cs = windowCorrs(rows, b)
    val evStats = statsRing(next); val evCs = corrRing(next)
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) {
        val c = cs(p)
        pairTerms(p) =
          if (held == 0) // first window: δ = 0, so terms are the window's own moments
            Terms(b.toLong, b * stats(i).std * stats(j).std * c,
              b * stats(i).variance, b * stats(j).variance, stats(i).mean, stats(j).mean)
          else if (full)
            IncrementalCorrelation.slide(pairTerms(p), evStats(i), evStats(j), evCs(p), stats(i), stats(j), c)
          else IncrementalCorrelation.append(pairTerms(p), stats(i), stats(j), c)
        p += 1
        j += 1
      }
      i += 1
    }
    statsRing(next) = stats; corrRing(next) = cs
    next = (next + 1) % nWindows
    if (!full) held += 1
  }

  /** Current correlation of pair (i, j), i < j. */
  def corr(i: Int, j: Int): Double = {
    val p = pairIndex(i, j)
    require(held > 0, "no data ingested yet")
    pairTerms(p).corr
  }

  /** Full symmetric correlation matrix (diagonal = 1). */
  def matrix(): Array[Array[Double]] = {
    val m = Array.fill(nSeries, nSeries)(1.0)
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) { val c = corr(i, j); m(i)(j) = c; m(j)(i) = c; j += 1 }
      i += 1
    }
    m
  }

  /** Thresholded network over the current window. */
  def network(theta: Double): Network = Network.fromMatrix(matrix(), theta)
}
