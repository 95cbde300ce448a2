package repro.perfbench

import scala.util.Random
import repro.climate.ClimateData
import repro.core.{BasicWindows, ExactCorrelation, Network, Pruning, SlidingNetwork, WindowStats}
import repro.dft.{ApproxCorrelation, DFT, SlidingApproxNetwork}

/** mem-ncea: the in-memory path (Fig 5) at the paper's NCEA station count.
  * A history sketch (Alg 1), then sliding over arriving windows (Lemma 2)
  * with arbitrary-range queries over the history between them (Lemma 1
  * plus raw head and tail), then the DFT comparator over the first
  * arriving windows. The per-pair c_j pass and network() dominate slides,
  * the Lemma-1 fold dominates queries; Spark is not used.
  */
object MemNcea {
  val N = 157
  val L = 8760
  val B = 100
  val Ns = 30
  val Theta = 0.75
  val NCoeff = 75
  val HistWindows: Int = L / B
  /** History windows the sliding set-up ingests beyond the first n_s, to warm the JIT. */
  val WarmSlides = 20
  val MinSlides = 1000
  /** One arbitrary-range query after every QueryEvery-th arriving window. */
  val QueryEvery = 16
  val ApproxSlides = 20
  val SetupReps = 3
  val Tol = 1e-9
  /** Every slide checks one in CheckStride pairs against direct Pearson, rotating. */
  val CheckStride = 32
  /** Pairs sampled per query for the direct-Pearson check, beside every reported edge. */
  val QuerySample = 300

  private val nPairs = N * (N - 1) / 2
  private val pairsI = new Array[Int](nPairs)
  private val pairsJ = new Array[Int](nPairs)
  locally {
    var p = 0
    for (i <- 0 until N; j <- i + 1 until N) { pairsI(p) = i; pairsJ(p) = j; p += 1 }
  }
  private def pairIndex(i: Int, j: Int): Int = i * N - i * (i + 1) / 2 + (j - i - 1)

  final class History(val sketch: Array[Array[WindowStats]], val pairC: Array[Array[Double]])

  /** Alg 1 in memory: per-series window sketches and per-pair c_j. */
  def sketchHistory(data: Array[Array[Double]], tr: Trace): History = {
    val hist = data.map(_.take(L))
    val sk = tr.span("core.BasicWindows.sketch")(hist.map(BasicWindows.sketch(_, B)))
    val pc = tr.span("core.BasicWindows.pairCorrs") {
      Array.tabulate(nPairs)(p => BasicWindows.pairCorrs(hist(pairsI(p)), hist(pairsJ(p)), B))
    }
    tr.count("core.BasicWindows.pairCorrs.count", nPairs.toLong * HistWindows)
    new History(sk, pc)
  }

  /** Network over raw range [start, end] (inclusive) from the history sketch. */
  def query(data: Array[Array[Double]], h: History, start: Int, end: Int, tr: Trace): Network =
    tr.span("core.Network.fromPairs") {
      val arbitrary = tr.agg("core.ExactCorrelation.arbitrary")
      Network.fromPairs(N, (i, j) => arbitrary {
        ExactCorrelation.arbitrary(data(i), data(j), B, h.sketch(i), h.sketch(j), h.pairC(pairIndex(i, j)), start, end)
      }, Theta)
    }

  private def window(data: Array[Array[Double]], w: Int): Array[Array[Double]] =
    Array.tabulate(N)(i => java.util.Arrays.copyOfRange(data(i), w * B, (w + 1) * B))

  /** Arriving window: Lemma-2 ingest, then the thresholded network. */
  private def update(s: SlidingNetwork, win: Array[Array[Double]], tr: Trace): Network = {
    tr.span("core.SlidingNetwork.ingest")(s.ingest(win))
    if (!tr.on) s.network(Theta)
    else {
      val m = tr.span("core.SlidingNetwork.matrix")(s.matrix())
      tr.span("core.Network.fromMatrix")(Network.fromMatrix(m, Theta))
    }
  }

  /** Check `net` and `corr` on the pairs `ps` against direct Pearson over raw [from, until). */
  private def agrees(data: Array[Array[Double]], ps: Iterator[Int], from: Int, until: Int,
                     corr: Int => Double, net: Network, drift: Array[Double]): Boolean =
    Check.network(net, ps.map(p => (pairsI(p), pairsJ(p))), Theta, Tol,
      (i, j) => ExactCorrelation.directRange(data(i), data(j), from, until), (i, j) => corr(pairIndex(i, j)), drift)

  def run(o: Opts, tr: Trace, r: Result): Unit = {
    val untraced = new Trace(false)
    val arriving = MinSlides + 50
    var data: Array[Array[Double]] = null
    var hist: History = null
    var sliding: SlidingNetwork = null
    var approx: SlidingApproxNetwork = null
    val setupS = Seq.newBuilder[Double]
    val sketchS = Seq.newBuilder[Double]
    // Each set-up generates the data, sketches the history (timed apart as
    // sketch_s), bootstraps the sliding network on the last history windows
    // and runs a few queries; the extra slides and queries warm the JIT.
    for (rep <- 0 until SetupReps) {
      data = null; hist = null; sliding = null
      val t0 = System.nanoTime()
      data = ClimateData.ncea(N, L + arriving * B, o.seed)
      val t1 = System.nanoTime()
      hist = sketchHistory(data, if (rep == SetupReps - 1) tr else untraced)
      val t2 = System.nanoTime()
      sliding = new SlidingNetwork(N, Ns)
      for (w <- HistWindows - Ns - WarmSlides until HistWindows) update(sliding, window(data, w), untraced)
      for (k <- 0 until 10) query(data, hist, 37 * k, L - 1 - 41 * k, untraced)
      val t3 = System.nanoTime()
      setupS += (t3 - t2 + t1 - t0) / 1e9
      sketchS += (t2 - t1) / 1e9
    }
    val rnd = new Random(o.seed)
    val drift = Array(0.0)
    val t0 = System.nanoTime()

    // Sliding: each arriving window is ingested and the network rebuilt.
    // Every QueryEvery-th window is followed by one arbitrary-range query
    // over the history, so both kinds of sample span the whole timed
    // phase. The ranges come from a fixed generator, not the seed, so
    // every run times the same mix of range lengths.
    val ranges = new Random(0)
    val updateMs, queryMs = Seq.newBuilder[Double]
    val overhead = new Overhead(tr, "trace.step_overhead_ms", "update")
    val queryOverhead = new Overhead(tr, "trace.query_overhead_ms", "query")
    val replayOfMs, replayPearsonMs = Seq.newBuilder[Double]
    var k = 0
    var q = 0
    while (k < arriving && (k < MinSlides || System.nanoTime() < o.deadline(t0))) {
      val w = HistWindows + k
      val win = window(data, w)
      val (net, ms) = overhead.step(k)(t => update(sliding, win, t))
      updateMs += ms
      if (tr.on && k % 2 == 0) {
        replayOfMs += Stats.timed(win.map(WindowStats.of))._2
        replayPearsonMs += Stats.timed {
          var p = 0
          while (p < nPairs) { WindowStats.pearson(win(pairsI(p)), win(pairsJ(p))); p += 1 }
        }._2
      }
      r.check(agrees(data, (k % CheckStride until nPairs by CheckStride).iterator, (w + 1 - Ns) * B, (w + 1) * B,
        p => sliding.corr(pairsI(p), pairsJ(p)), net, drift), s"slide to window $w")

      if (k % QueryEvery == 0) {
        val len = 2 * B + ranges.nextInt(L - 2 * B)
        val start = ranges.nextInt(L - len + 1)
        val end = start + len - 1
        val (qnet, qms) = queryOverhead.step(q)(t => query(data, hist, start, end, t))
        queryMs += qms
        val ps = qnet.edges.iterator.map { case (i, j, _) => pairIndex(i, j) } ++
          Iterator.fill(QuerySample)(rnd.nextInt(nPairs))
        val corr = (p: Int) => ExactCorrelation.arbitrary(data(pairsI(p)), data(pairsJ(p)), B,
          hist.sketch(pairsI(p)), hist.sketch(pairsJ(p)), hist.pairC(p), start, end)
        r.check(agrees(data, ps, start, end + 1, corr, qnet, drift), s"query [$start,$end]")
        q += 1
      }
      k += 1
    }

    // The DFT comparator over the first arriving windows: n_s to fill its
    // query window, then ApproxSlides timed slides.
    approx = new SlidingApproxNetwork(N, Ns, NCoeff)
    val approxMs, replayDftMs = Seq.newBuilder[Double]
    for (w <- HistWindows until HistWindows + Ns + ApproxSlides) {
      val win = window(data, w)
      val timed = w >= HistWindows + Ns
      val ms = Stats.timed(if (timed) tr.span("dft.SlidingApproxNetwork.ingest")(approx.ingest(win)) else approx.ingest(win))._2
      approx.network(Theta)
      if (timed) approxMs += ms
      if (timed && tr.on) replayDftMs += Stats.timed {
        win.foreach(x => DFT.transform(ApproxCorrelation.normalize(x, WindowStats.of(x))))
      }._2
    }
    val us = updateMs.result(); val qs = queryMs.result(); val as = approxMs.result()

    // Live heap held by the exact and the DFT sliding networks.
    val withState = Stats.liveHeapMb()
    sliding = null; approx = null
    val stateMb = withState - Stats.liveHeapMb()

    r.env("sizes") = s"N=$N L=$L B=$B n_s=$Ns theta=$Theta n_coeff=$NCoeff"
    r.report("setup_s") = (Stats.median(setupS.result()), "s")
    r.report("sketch_s") = (Stats.median(sketchS.result()), "s")
    r.report("query_ms_p50") = (Stats.pct(qs, 0.5), "ms")
    r.report("query_ms_p75") = (Stats.pct(qs, 0.75), "ms")
    r.report("query_samples") = (qs.size.toDouble, "count")
    r.report("update_ms_p50") = (Stats.pct(us, 0.5), "ms")
    r.report("update_ms_p90") = (Stats.pct(us, 0.9), "ms")
    r.report("update_samples") = (us.size.toDouble, "count")
    r.report("approx_update_ms_p50") = (Stats.pct(as, 0.5), "ms")
    r.report("approx_update_samples") = (as.size.toDouble, "count")
    r.report("state_mb") = (stateMb, "MB")
    r.report("drift_max") = (drift(0), "corr")
    r.e2e("setup_s") = r.report("setup_s")._1
    r.e2e("sketch_s") = r.report("sketch_s")._1
    r.e2e("query_ms_p50") = r.report("query_ms_p50")._1
    r.e2e("query_ms_p75") = r.report("query_ms_p75")._1
    r.e2e("step_ms_p50") = r.report("update_ms_p50")._1
    r.e2e("step_ms_p75") = Stats.pct(us, 0.75)
    r.e2e("state_mb") = stateMb

    if (tr.on) {
      val ingest = tr.meanMs("core.SlidingNetwork.ingest")
      val ofMs = mean(replayOfMs.result()); val pearsonMs = mean(replayPearsonMs.result())
      r.layers("core.BasicWindows.sketch.ms") = tr.meanMs("core.BasicWindows.sketch")
      r.layers("core.BasicWindows.pairCorrs.ms") = tr.meanMs("core.BasicWindows.pairCorrs")
      r.layers("core.BasicWindows.pairCorrs.count") = tr.counter("core.BasicWindows.pairCorrs.count").toDouble
      val fromPairs = tr.totalMs("core.Network.fromPairs")
      val queries = tr.calls("core.Network.fromPairs").toDouble
      r.layers("core.ExactCorrelation.arbitrary.ms") = tr.aggMs("core.ExactCorrelation.arbitrary") / queries
      r.layers("core.ExactCorrelation.arbitrary.calls") = tr.aggCalls("core.ExactCorrelation.arbitrary") / queries
      r.layers("core.Network.fromPairs.self_ms") = (fromPairs - tr.aggMs("core.ExactCorrelation.arbitrary")) / queries
      r.layers("core.SlidingNetwork.ingest.ms") = ingest
      r.layers("core.SlidingNetwork.matrix.ms") = tr.meanMs("core.SlidingNetwork.matrix")
      r.layers("core.Network.fromMatrix.ms") = tr.meanMs("core.Network.fromMatrix")
      r.layers("core.WindowStats.of.replay_ms") = ofMs
      r.layers("core.WindowStats.pearson.replay_ms") = pearsonMs
      r.layers("core.lemma2.self_ms") = ingest - ofMs - pearsonMs
      r.layers("core.lemma2.drift_max") = drift(0)
      r.layers("dft.SlidingApproxNetwork.ingest.ms") = tr.meanMs("dft.SlidingApproxNetwork.ingest")
      r.layers("dft.DFT.transform.replay_ms") = mean(replayDftMs.result())
      pruning(hist, r)
      overhead.report(r)
      queryOverhead.report(r)
    }
  }

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** Alg 5 over the Lemma-1 matrix of the whole history, at each θ. */
  private def pruning(h: History, r: Result): Unit = {
    val full = Array.tabulate(nPairs)(p =>
      ExactCorrelation.lemma1(h.sketch(pairsI(p)).toIndexedSeq, h.sketch(pairsJ(p)).toIndexedSeq, h.pairC(p).toIndexedSeq))
    for (theta <- Seq(0.5, 0.75, 0.9)) {
      val (pr, ms) = Stats.timed(Pruning.thresholdMatrix(N, (i, j) => full(pairIndex(i, j)), theta))
      r.layers(s"core.Pruning.theta_$theta.computed") = pr.computed.toDouble
      r.layers(s"core.Pruning.theta_$theta.inferred") = pr.inferred.toDouble
      r.layers(s"core.Pruning.theta_$theta.ms") = ms
    }
  }
}
