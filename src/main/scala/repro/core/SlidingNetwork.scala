package repro.core

/** All-pair sliding-window correlation state for real-time data
  * (Algorithm 3). Holds a ring of the last n_s basic windows (each slot one
  * window's sketches of every series and its c_j of every pair) plus the
  * Lemma-2 state of the current query window: per series its grand mean
  * and T·σ², per pair its numerator T·cov, and the flat array of current
  * correlations that `corr` and `network` read. `ingest` advances every
  * series, then every pair, via [[IncrementalCorrelation]]'s two steps.
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
  // Lemma-2 state: T, then per series and per pair.
  private var t = 0L
  private val grandMean = new Array[Double](nSeries)
  private val tVar = new Array[Double](nSeries)
  private val numerator = new Array[Double](nPairs)
  private val corrs = new Array[Double](nPairs)
  // Per-series scratch of one ingest, read by the pair loop.
  private val sdEvict, dEvict, sdAdd, dAdd, alpha = new Array[Double](nSeries)

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
    * per-window c_j step follows, then the O(N) per-series step and the
    * O(1) per-pair step, the point of Lemma 2.
    *
    * A window whose mean or σ is not finite (a NaN or ∞ observation) is
    * rejected before any state changes: Lemma 2 would carry it in its
    * series' moments for good.
    *
    * @param windows raw basic window per series, all of equal length
    */
  def ingest(windows: Array[Array[Double]]): Unit = {
    require(windows.length == nSeries, s"expected $nSeries windows, got ${windows.length}")
    val b = windows(0).length
    require(windows.forall(_.length == b), "all series must deliver equal-size basic windows")
    val stats = windows.map(WindowStats.of)
    for (i <- 0 until nSeries)
      require(java.lang.Double.isFinite(stats(i).mean) && java.lang.Double.isFinite(stats(i).std),
        s"series $i: window is not finite (mean ${stats(i).mean}, σ ${stats(i).std})")
    val rows = new Array[Double](nSeries * b)
    for (i <- 0 until nSeries) CorrKernel.normalizeInto(windows(i), 0, stats(i), rows, i * b)
    val cs = windowCorrs(rows, b)
    advance(stats, cs)
    statsRing(next) = stats; corrRing(next) = cs
    next = (next + 1) % nWindows
    if (!full) held += 1
  }

  /** Lemma 2: append (ring not yet full) or slide (evict the oldest) the
    * arriving window of every series, then write the correlations.
    */
  private def advance(stats: Array[WindowStats], cs: Array[Double]): Unit = {
    val evStats = if (full) statsRing(next) else null
    val evCs = if (full) corrRing(next) else null
    val bOld = if (full) evStats(0).size else 0
    val bNew = stats(0).size
    t = t - bOld + bNew
    var i = 0
    while (i < nSeries) {
      if (held == 0) { // first window: δ = 0, so the state is the window's own moments
        grandMean(i) = stats(i).mean; tVar(i) = bNew * stats(i).variance
      } else {
        val ev = if (full) evStats(i) else IncrementalCorrelation.absent(grandMean(i))
        val s = IncrementalCorrelation.seriesStep(t, grandMean(i), tVar(i), ev, stats(i))
        sdEvict(i) = ev.std; dEvict(i) = s.dEvict; dAdd(i) = s.dAdd; alpha(i) = s.alpha
        grandMean(i) = s.grandMean; tVar(i) = s.tVar
      }
      sdAdd(i) = stats(i).std
      i += 1
    }
    val tD = t.toDouble
    var p = 0
    i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) {
        val num =
          if (held == 0) bNew * sdAdd(i) * sdAdd(j) * cs(p)
          else IncrementalCorrelation.numeratorStep(numerator(p),
            bOld, sdEvict(i), sdEvict(j), if (evCs == null) 0.0 else evCs(p), dEvict(i), dEvict(j),
            bNew, sdAdd(i), sdAdd(j), cs(p), dAdd(i), dAdd(j),
            tD, alpha(i), alpha(j))
        numerator(p) = num
        corrs(p) = ExactCorrelation.corr(num, tVar(i), tVar(j))
        p += 1
        j += 1
      }
      i += 1
    }
  }

  /** Current correlation of pair (i, j), i < j. */
  def corr(i: Int, j: Int): Double = {
    val p = pairIndex(i, j)
    require(held > 0, "no data ingested yet")
    corrs(p)
  }

  /** Full symmetric correlation matrix (diagonal = 1), a copy of the
    * current correlations.
    */
  def matrix(): Array[Array[Double]] = {
    require(held > 0, "no data ingested yet")
    val m = Array.ofDim[Double](nSeries, nSeries)
    var p = 0
    var i = 0
    while (i < nSeries) {
      m(i)(i) = 1.0
      var j = i + 1
      while (j < nSeries) { val c = corrs(p); m(i)(j) = c; m(j)(i) = c; p += 1; j += 1 }
      i += 1
    }
    m
  }

  /** Thresholded network over the current window: the pairs with
    * corr > θ, read from the flat correlations in pair-index order.
    */
  def network(theta: Double): Network = {
    require(held > 0, "no data ingested yet")
    val es = Vector.newBuilder[(Int, Int, Double)]
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) {
        val c = corrs(p)
        if (c > theta) es += ((i, j, c))
        p += 1
        j += 1
      }
      i += 1
    }
    Network(nSeries, es.result())
  }
}
