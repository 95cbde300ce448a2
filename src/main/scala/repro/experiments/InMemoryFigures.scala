package repro.experiments

import repro.climate.ClimateData
import repro.core._
import repro.dft.{ApproxCorrelation, DFT, SlidingApproxNetwork}
import repro.dft.ApproxCorrelation.DftSketch

/** Harnesses for the paper's in-memory experiments (Figures 5a–5d) on the
  * NCEA-like data set. These measure the *algorithms* (as the paper's
  * in-memory Go implementation does), so they run driver-side on the
  * reference implementations; the Spark/disk path is exercised by
  * [[ScalabilityFigures]] (Figures 6a–6d).
  */
object InMemoryFigures {

  // ---------------------------------------------------------------- Fig 5a

  final case class AccuracyRow(nCoeff: Int, edgesExact: Int, edgesDft: Int, simRatio: Double)

  /** Figure 5a — network accuracy of the DFT approximation vs the exact
    * basic-window aggregation, varying the number of DFT coefficients.
    *
    * Both sides aggregate per-basic-window values over the query window by
    * averaging (the StatStream aggregation the paper attributes to [37]):
    * the reference network averages exact per-window correlations c_i and
    * is independent of the coefficient count; the DFT network averages
    * prefix-coefficient distances d_i² and thresholds the resulting
    * correlation estimate. Prefix distances under-estimate distance, so
    * the DFT network over-reports edges (false positives, no false
    * negatives) until all coefficients are used.
    */
  def fig5a(data: Array[Array[Double]], b: Int, theta: Double, coeffs: Seq[Int]): Seq[AccuracyRow] = {
    val n = data.length
    val windows = data.map(BasicWindows.split(_, b))
    val nWin = windows(0).length
    val stats = windows.map(_.map(WindowStats.of))
    val sketches: Array[Array[DftSketch]] = Array.tabulate(n) { i =>
      Array.tabulate(nWin) { w =>
        val (re, im) = DFT.transform(ApproxCorrelation.normalize(windows(i)(w), stats(i)(w)))
        DftSketch(re, im)
      }
    }
    // exact per-window correlations, averaged (coefficient-independent)
    val exactNet = Network.fromPairs(n, (i, j) =>
      ApproxCorrelation.statStreamAverage(BasicWindows.pairCorrs(data(i), data(j), b).toIndexedSeq), theta)
    coeffs.map { nc =>
      val dftNet = Network.fromPairs(n, (i, j) => {
        var sum = 0.0
        var w = 0
        while (w < nWin) { sum += ApproxCorrelation.windowDistSq(sketches(i)(w), sketches(j)(w), nc); w += 1 }
        ApproxCorrelation.corrFromDistSq(sum / nWin)
      }, theta)
      AccuracyRow(nc, exactNet.edgeCount, dftNet.edgeCount, SimilarityRatio.ofNetworks(dftNet, exactNet))
    }
  }

  // ---------------------------------------------------------------- Fig 5b

  final case class SketchRow(b: Int, tsubasaSketchMs: Double, tsubasaQueryMs: Double,
                             dftSketchMs: Double, dftQueryMs: Double)

  /** Figure 5b — sketch time + query time vs basic window size, for a
    * fixed query window covering the whole sketched range. The DFT
    * comparator pays O(B²) per window at sketch time; TSUBASA pays O(B).
    * Query time for both is a fold over pre-computed per-window values
    * (Lemma 1 vs Equation 5) and is reported separately. The DFT query is
    * coefficient-count independent (distances are pre-computed), so one
    * DFT column covers both the all- and 75%-coefficient scenarios.
    */
  def fig5b(data: Array[Array[Double]], queryWindow: Int, bs: Seq[Int], coeffFraction: Double = 0.75): Seq[SketchRow] = {
    val n = data.length
    val trimmed = data.map(_.take(queryWindow))
    bs.map { b =>
      val nc = math.max(1, (coeffFraction * b).toInt)
      var stats: Array[Array[WindowStats]] = null
      var cs: Array[Array[Double]] = null
      val tsubasaSketch = Timing.timeMs {
        stats = trimmed.map(BasicWindows.sketch(_, b))
        cs = new Array[Array[Double]](n * (n - 1) / 2)
        var p = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) {
            cs(p) = BasicWindows.pairCorrs(trimmed(i), trimmed(j), b)
            p += 1; j += 1
          }
          i += 1
        }
      }
      val tsubasaQuery = Timing.timeMs {
        var p = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) {
            ExactCorrelation.lemma1(stats(i).toIndexedSeq, stats(j).toIndexedSeq, cs(p).toIndexedSeq)
            p += 1; j += 1
          }
          i += 1
        }
      }
      var dsq: Array[Array[Double]] = null
      val dftSketch = Timing.timeMs {
        val windows = trimmed.map(BasicWindows.split(_, b))
        stats = windows.map(_.map(WindowStats.of))
        val nWin = windows(0).length
        val sk = Array.tabulate(n)(i => Array.tabulate(nWin) { w =>
          val (re, im) = DFT.transform(ApproxCorrelation.normalize(windows(i)(w), stats(i)(w)))
          DftSketch(re, im)
        })
        dsq = new Array[Array[Double]](n * (n - 1) / 2)
        var p = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) {
            dsq(p) = Array.tabulate(nWin)(w => ApproxCorrelation.windowDistSq(sk(i)(w), sk(j)(w), nc))
            p += 1; j += 1
          }
          i += 1
        }
      }
      val dftQuery = Timing.timeMs {
        var p = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) {
            ApproxCorrelation.eq5Corr(stats(i).toIndexedSeq, stats(j).toIndexedSeq, dsq(p).toIndexedSeq)
            p += 1; j += 1
          }
          i += 1
        }
      }
      SketchRow(b, tsubasaSketch, tsubasaQuery, dftSketch, dftQuery)
    }
  }

  // ---------------------------------------------------------------- Fig 5c

  final case class QueryRow(queryWindow: Int, tsubasaMs: Double, dftMs: Double, baselineMs: Double)

  /** Figure 5c — query time vs query window size at fixed B. Sketches are
    * pre-built (sketch time excluded, as in the paper); the baseline
    * computes Pearson directly from raw data per query.
    */
  def fig5c(data: Array[Array[Double]], b: Int, queryWindows: Seq[Int], coeffFraction: Double = 0.75): Seq[QueryRow] = {
    val n = data.length
    val windows = data.map(BasicWindows.split(_, b))
    val nWin = windows(0).length
    val nc = math.max(1, (coeffFraction * b).toInt)
    val nPairs = n * (n - 1) / 2
    // dense per-series / per-pair sketches (query-time inputs)
    val stats = data.map(BasicWindows.sketch(_, b))
    val means = stats.map(_.map(_.mean))
    val stds = stats.map(_.map(_.std))
    val cs = new Array[Array[Double]](nPairs)
    val cHat = new Array[Array[Double]](nPairs) // 1 − d²/2 per window (Eq 5 inputs)
    val sketches = Array.tabulate(n)(i => Array.tabulate(nWin) { w =>
      val (re, im) = DFT.transform(ApproxCorrelation.normalize(windows(i)(w), stats(i)(w)))
      DftSketch(re, im)
    })
    var p = 0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        cs(p) = BasicWindows.pairCorrs(data(i), data(j), b)
        cHat(p) = Array.tabulate(nWin)(w => ApproxCorrelation.corrFromDistSq(
          ApproxCorrelation.windowDistSq(sketches(i)(w), sketches(j)(w), nc)))
        p += 1; j += 1
      }
      i += 1
    }
    def exactPass(k: Int): Unit = {
      var p = 0; var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          ExactCorrelation.lemma1Dense(means(i), stds(i), means(j), stds(j), cs(p), 0, k)
          p += 1; j += 1
        }
        i += 1
      }
    }
    def approxPass(k: Int): Unit = {
      var p = 0; var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          ExactCorrelation.lemma1Dense(means(i), stds(i), means(j), stds(j), cHat(p), 0, k)
          p += 1; j += 1
        }
        i += 1
      }
    }
    def baselinePass(qw: Int): Unit = {
      var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          ExactCorrelation.directRange(data(i), data(j), 0, qw)
          j += 1
        }
        i += 1
      }
    }
    // JIT warm-up outside the timed region
    exactPass(nWin); approxPass(nWin); baselinePass(queryWindows.max)
    queryWindows.map { qw =>
      val k = qw / b // windows in the query
      QueryRow(qw,
        Timing.medianMs(5)(exactPass(k)),
        Timing.medianMs(5)(approxPass(k)),
        Timing.medianMs(5)(baselinePass(qw)))
    }
  }

  // ---------------------------------------------------------------- Fig 5d

  final case class UpdateRow(b: Int, tsubasaUpdateMs: Double, dftUpdateMs: Double)

  /** Figure 5d — time to update the all-pair network upon arrival of one
    * new basic window of B points, for a sliding query window of fixed
    * size. TSUBASA slides via Lemma 2 (O(B) sketch + O(1)/pair fold after
    * the O(B)/pair c computation); the DFT comparator additionally pays
    * the O(B²) DFT per series (Equation 6 path).
    */
  def fig5d(data: Array[Array[Double]], queryWindow: Int, bs: Seq[Int],
            coeffFraction: Double = 0.75, reps: Int = 5): Seq[UpdateRow] = {
    val n = data.length
    // JIT warm-up of both sliding paths before any timed ingest
    locally {
      val wb = 20; val wWin = 3
      val exact = new SlidingNetwork(n, wWin)
      val approx = new SlidingApproxNetwork(n, wWin, (coeffFraction * wb).toInt.max(1))
      for (w <- 0 until wWin + 2) {
        val batch = Array.tabulate(n)(i => java.util.Arrays.copyOfRange(data(i), w * wb, (w + 1) * wb))
        exact.ingest(batch); approx.ingest(batch)
      }
    }
    bs.map { b =>
      val nWin = queryWindow / b
      val nc = math.max(1, (coeffFraction * b).toInt)
      val exact = new SlidingNetwork(n, nWin)
      val approx = new SlidingApproxNetwork(n, nWin, nc)
      // warm both up to a full window, leaving `reps` windows unconsumed
      val total = nWin + reps
      require(data(0).length >= total * b, s"need ${total * b} points, have ${data(0).length}")
      val batches = (0 until total).map(w => Array.tabulate(n)(i =>
        java.util.Arrays.copyOfRange(data(i), w * b, (w + 1) * b)))
      batches.take(nWin).foreach { w => exact.ingest(w); approx.ingest(w) }
      val tsubasa = batches.slice(nWin, total).map(w => Timing.timeMs(exact.ingest(w)))
      val dft = batches.slice(nWin, total).map(w => Timing.timeMs(approx.ingest(w)))
      UpdateRow(b, tsubasa.sorted.apply(reps / 2), dft.sorted.apply(reps / 2))
    }
  }

  // ------------------------------------------------------------- printing

  def printTable(header: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    val all = header +: rows.map(_.map {
      case d: Double => f"$d%.3f"
      case x => x.toString
    })
    val widths = all.transpose.map(_.map(_.length).max)
    all.zipWithIndex.foreach { case (r, idx) =>
      println(r.lazyZip(widths).map((c, w) => c.reverse.padTo(w, ' ').reverse).mkString("  "))
      if (idx == 0) println(widths.map("-" * _).mkString("  "))
    }
  }
}
