package repro.perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.PerfbenchStreamCounters
import org.apache.spark.sql.SparkSession
import repro.climate.ClimateData
import repro.core.{ExactCorrelation, Network, SlidingNetwork, WindowStats}
import repro.stream.{Obs, RealTimeNetwork}

/** stream-rt: the real-time path (Alg 3) through Structured Streaming, one
  * closed-loop client calling `sendAndProcess`. Each batch carries about
  * ten basic windows of observations, shuffled so that every window spans
  * two consecutive batches, and about 0.1% of rows are sent again with the
  * same value in the same or the next batch. Windows are tiny (B=10), so
  * micro-batch overhead and window assembly dominate, not c_j.
  */
object StreamRt {
  val N = 100
  val B = 10
  val Ns = 100
  val Theta = 0.75
  /** Basic windows per group; group g is split over batches g and g+1. */
  val GroupWindows = 10
  val ResendRate = 0.001
  val WarmBatches = 5
  val MinBatches = 100
  val MaxBatches = 110
  val SetupReps = 5
  val Tol = 1e-9

  /** Rows of every batch after the bootstrap, in send order. */
  def batches(data: Array[Array[Double]], nBatches: Int, seed: Long): Array[Array[Obs]] = {
    val rnd = new Random(seed)
    val t0 = Ns * B
    val halves = Array.tabulate(nBatches) { g =>
      val rows = rnd.shuffle((0 until GroupWindows * B).flatMap { dt =>
        val t = t0 + g * GroupWindows * B + dt
        (0 until N).map(i => Obs(i, t.toLong, data(i)(t)))
      })
      rows.splitAt(rows.length / 2)
    }
    val out = Array.tabulate(nBatches)(k =>
      (halves(k)._1 ++ (if (k > 0) halves(k - 1)._2 else Nil)).toBuffer)
    for (k <- 0 until nBatches; o <- out(k).toList if rnd.nextDouble() < ResendRate) {
      val to = if (k + 1 < nBatches && rnd.nextBoolean()) k + 1 else k
      out(to) += o
    }
    out.map(b => rnd.shuffle(b).toArray)
  }

  /** Rows buffered by the assembler: (all, those older than the next window). */
  private def pending(net: RealTimeNetwork): (Long, Long) = {
    val f = classOf[RealTimeNetwork].getDeclaredField("pendingCounts")
    f.setAccessible(true)
    val counts = net.synchronized(f.get(net).asInstanceOf[mutable.LongMap[Any]].toSeq)
    val next = net.ingestedWindows * B
    val all = counts.map(_._2.asInstanceOf[Int].toLong).sum
    val stale = counts.collect { case (t, c) if t < next => c.asInstanceOf[Int].toLong }.sum
    (all, stale)
  }

  /** Every pair of `net` against direct Pearson over the raw points of the last n_s windows before `w`. */
  private def agrees(data: Array[Array[Double]], w: Long, net: Network, corr: (Int, Int) => Double,
                     drift: Array[Double]): Boolean = {
    val until = (w * B).toInt
    Check.network(net, for (i <- (0 until N).iterator; j <- i + 1 until N) yield (i, j), Theta, Tol,
      (i, j) => ExactCorrelation.directRange(data(i), data(j), until - Ns * B, until), corr, drift)
  }

  def run(o: Opts, tr: Trace, r: Result): Unit = {
    val total = WarmBatches + MaxBatches + 1
    var spark: SparkSession = null
    var net: RealTimeNetwork = null
    var data: Array[Array[Double]] = null
    var sends: Array[Array[Obs]] = null
    val setupS = Seq.newBuilder[Double]
    val sketchS = Seq.newBuilder[Double]
    // Each set-up starts a session, generates the data and batches, starts
    // the stream, bootstraps n_s windows in one batch (timed apart as
    // sketch_s), then sends the first batches so the first micro-batches'
    // codegen and JIT cost stays out of the timed loop.
    for (rep <- 0 until SetupReps) {
      if (net != null) { net.stop(); spark.stop() }
      val t0 = System.nanoTime()
      spark = Session.start(o)
      data = ClimateData.series(N, (Ns + total * GroupWindows) * B, o.seed)
      sends = batches(data, total, o.seed)
      net = new RealTimeNetwork(spark, N, B, Ns)
      val t1 = System.nanoTime()
      net.sendAndProcess(for (t <- 0 until Ns * B; i <- 0 until N) yield Obs(i, t.toLong, data(i)(t)))
      val t2 = System.nanoTime()
      for (k <- 0 until WarmBatches) { net.sendAndProcess(sends(k).toSeq); net.network(Theta) }
      val t3 = System.nanoTime()
      setupS += (t3 - t2 + t1 - t0) / 1e9
      sketchS += (t2 - t1) / 1e9
    }
    Session.record(r, spark)
    val counters = new PerfbenchStreamCounters
    spark.streams.addListener(counters)
    r.check(net.ingestedWindows == Ns + (WarmBatches - 1) * GroupWindows, "windows after set-up")

    // A shadow engine fed the same complete windows replays the core ingest.
    val shadow = if (tr.on) new SlidingNetwork(N, Ns) else null
    def window(w: Long) = Array.tabulate(N)(i => java.util.Arrays.copyOfRange(data(i), (w * B).toInt, ((w + 1) * B).toInt))
    if (tr.on) (0L until net.ingestedWindows).foreach(w => shadow.ingest(window(w)))

    val c0 = counters.snapshot(spark)
    val overhead = new Overhead(tr, "trace.step_overhead_ms", "batch")
    val queryOverhead = new Overhead(tr, "trace.query_overhead_ms", "network")
    val batchMs, networkMs = Seq.newBuilder[Double]
    var replayIngestMs, replayOfMs, replayPearsonMs = 0.0
    val drift = Array(0.0)
    var rowsSent = 0L
    var stale = 0L
    val t0 = System.nanoTime()
    var k = 0
    while (k < MaxBatches && (k < MinBatches || System.nanoTime() < o.deadline(t0))) {
      val rows = sends(WarmBatches + k)
      val before = net.ingestedWindows
      val (_, ms) = overhead.step(k)(t => t.span("stream.sendAndProcess")(net.sendAndProcess(rows.toSeq)))
      batchMs += ms
      rowsSent += rows.length
      val (nw, nms) = queryOverhead.step(k)(_ => net.network(Theta))
      networkMs += nms
      val after = net.ingestedWindows
      r.check(after == before + GroupWindows, s"batch $k ingested ${after - before} windows")
      r.check(agrees(data, after, nw, (i, j) => net.sliding.corr(i, j), drift), s"network after batch $k")
      if (tr.on) (before until after).foreach { w =>
        val win = window(w)
        replayOfMs += Stats.timed(win.map(WindowStats.of))._2
        replayPearsonMs += Stats.timed(for (i <- 0 until N; j <- i + 1 until N) WindowStats.pearson(win(i), win(j)))._2
        replayIngestMs += Stats.timed(shadow.ingest(win))._2
      }
      stale = pending(net)._2
      k += 1
    }
    val c1 = counters.snapshot(spark)
    val (rowsPending, _) = pending(net)
    val bs = batchMs.result(); val ns = networkMs.result()

    // Live heap held by the running network.
    val withState = Stats.liveHeapMb()
    net.stop(); net = null
    val stateMb = withState - Stats.liveHeapMb()
    spark.stop()

    r.env("sizes") = s"N=$N B=$B n_s=$Ns theta=$Theta windows_per_batch=$GroupWindows resend_rate=$ResendRate"
    r.report("setup_s") = (Stats.median(setupS.result()), "s")
    r.report("bootstrap_s") = (Stats.median(sketchS.result()), "s")
    r.report("batch_ms_p50") = (Stats.pct(bs, 0.5), "ms")
    r.report("batch_ms_p90") = (Stats.pct(bs, 0.9), "ms")
    r.report("batch_samples") = (bs.size.toDouble, "count")
    r.report("obs_per_s") = (rowsSent / (bs.sum / 1e3), "1/s")
    r.report("network_ms_p50") = (Stats.pct(ns, 0.5), "ms")
    r.report("state_mb") = (stateMb, "MB")
    r.report("rows_leaked") = (stale.toDouble, "count")
    r.report("drift_max") = (drift(0), "corr")
    r.e2e("setup_s") = r.report("setup_s")._1
    r.e2e("sketch_s") = r.report("bootstrap_s")._1
    r.e2e("query_ms_p50") = r.report("network_ms_p50")._1
    r.e2e("query_ms_p75") = Stats.pct(ns, 0.75)
    r.e2e("step_ms_p50") = r.report("batch_ms_p50")._1
    r.e2e("step_ms_p75") = Stats.pct(bs, 0.75)
    r.e2e("state_mb") = stateMb

    if (tr.on) {
      val windows = (bs.size * GroupWindows).toDouble
      r.layers("stream.sendAndProcess.ms") = tr.meanMs("stream.sendAndProcess")
      r.layers("stream.microbatches") = (c1._1 - c0._1).toDouble
      r.layers("stream.addBatch_ms") = (c1._2 - c0._2).toDouble / bs.size
      r.layers("stream.triggerExecution_ms") = (c1._3 - c0._3).toDouble / bs.size
      r.layers("stream.windows_ingested") = windows
      r.layers("stream.rows_sent") = rowsSent.toDouble
      r.layers("stream.rows_pending") = rowsPending.toDouble
      r.layers("stream.rows_leaked") = stale.toDouble
      r.layers("stream.core_ingest.replay_ms") = replayIngestMs / bs.size
      r.layers("core.WindowStats.of.replay_ms") = replayOfMs / windows
      r.layers("core.WindowStats.pearson.replay_ms") = replayPearsonMs / windows
      r.layers("core.lemma2.self_ms") = (replayIngestMs - replayOfMs - replayPearsonMs) / windows
      r.layers("core.lemma2.drift_max") = drift(0)
      overhead.report(r)
      queryOverhead.report(r)
    }
  }
}
