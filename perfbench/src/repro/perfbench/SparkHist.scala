package repro.perfbench

import scala.util.Random
import org.apache.spark.PerfbenchTaskCounters
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.climate.ClimateData
import repro.core.ExactCorrelation
import repro.spark.{Sketcher, SketchStore, SparkExact}

/** spark-hist: the disk-based historical path (Fig 6). A Parquet sketch
  * build (Alg 1) of a Berkeley-like table, then network queries over
  * window ranges × θ read back from the store (Alg 2). Spark shuffle, the
  * store and the Catalyst Lemma-1 fold do the work; the in-memory c_j
  * kernel and Lemma 2 are bypassed.
  */
object SparkHist {
  val N = 300
  val L = 960
  val B = 120
  val Windows: Int = L / B
  val Thetas: Seq[Double] = Seq(0.5, 0.75, 0.9)
  val SetupReps = 3
  val MinQueries = 60
  /** Queries each set-up runs untimed, from the start of the plan. */
  val WarmQueries = 5
  val Tol = 1e-9

  private val nPairs = N * (N - 1) / 2
  private def pairIndex(i: Int, j: Int): Int = i * N - i * (i + 1) / 2 + (j - i - 1)

  /** Alg 1: window stats → pair sketch → store. Traced, each stage is
    * materialised on its own so its time and row count are separable.
    */
  private def sketch(raw: DataFrame, store: SketchStore, tr: Trace): Unit =
    if (!tr.on) store.writePair(Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, B)))
    else {
      val stats = tr.span("spark.Sketcher.seriesWindowStats") {
        val s = Sketcher.seriesWindowStats(raw, B).cache(); tr.count("spark.Sketcher.seriesWindowStats.rows", s.count()); s
      }
      val pairs = tr.span("spark.Sketcher.pairSketch") {
        val p = Sketcher.pairSketch(stats).cache(); tr.count("spark.Sketcher.pairSketch.rows", p.count()); p
      }
      tr.span("spark.SketchStore.writePair")(store.writePair(pairs))
      tr.count("spark.SketchStore.writePair.bytes", store.sizeBytes)
      pairs.unpersist(blocking = true); stats.unpersist(blocking = true)
    }

  /** Alg 2: read the store, fold Lemma 1 over windows [wLo, wHi], threshold, collect. */
  private def query(spark: SparkSession, store: SketchStore, wLo: Int, wHi: Int, theta: Double,
                    tr: Trace): Array[(Int, Int, Double)] = {
    val pairs = tr.span("spark.SketchStore.readPair")(store.readPair(spark))
    val rows = tr.span("spark.SparkExact.correlationMatrix") {
      SparkExact.edges(SparkExact.correlationMatrix(pairs, wLo, wHi), theta).collect()
    }
    tr.count("spark.SparkExact.edges.count", rows.length.toLong)
    rows.map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
  }

  /** Direct Pearson of every pair over the raw points of windows [wLo, wHi]. */
  private def reference(data: Array[Array[Double]], wLo: Int, wHi: Int): Array[Double] = {
    val out = new Array[Double](nPairs)
    for (i <- 0 until N; j <- i + 1 until N)
      out(pairIndex(i, j)) = ExactCorrelation.directRange(data(i), data(j), wLo * B, (wHi + 1) * B)
    out
  }

  /** Edges and weights agree with the reference; pairs within Tol of θ may go either way. */
  private def agrees(edges: Array[(Int, Int, Double)], ref: Array[Double], theta: Double): Boolean = {
    val seen = new Array[Boolean](nPairs)
    val kept = edges.forall { case (i, j, c) =>
      val p = pairIndex(i, j); seen(p) = true
      ref(p) > theta - Tol && math.abs(c - ref(p)) <= Tol
    }
    kept && ref.indices.forall(p => seen(p) || ref(p) <= theta + Tol)
  }

  def run(o: Opts, tr: Trace, r: Result): Unit = {
    val untraced = new Trace(false)
    var spark: SparkSession = null
    var data: Array[Array[Double]] = null
    var counters: PerfbenchTaskCounters = null
    val store = SketchStore(s"${o.workDir}/store")
    val ranges = for (lo <- 0 until Windows; hi <- lo until Windows) yield (lo, hi)
    // The query plan is fixed, not seeded, so every run times the same mix:
    // each 36 consecutive queries cover every range once and every θ twelve times.
    val order = new Random(0).shuffle(ranges)
    val plan = Array.tabulate(ranges.size * Thetas.size)(k => (order(k % ranges.size), Thetas((k + k / ranges.size) % Thetas.size)))

    // Each set-up starts a session, generates the data, caches the raw
    // table, builds the sketch store (timed apart as sketch_s) and runs the
    // first queries of the plan, so the JIT and Catalyst codegen are warm
    // before the queries are timed. The last set-up's session and store
    // serve the queries.
    val setupS = Seq.newBuilder[Double]
    val sketchS = Seq.newBuilder[Double]
    var c0, c1 = (0L, 0L, 0L)
    for (rep <- 0 until SetupReps) {
      if (spark != null) spark.stop()
      val last = rep == SetupReps - 1
      val t0 = System.nanoTime()
      spark = Session.start(o)
      counters = new PerfbenchTaskCounters
      spark.sparkContext.addSparkListener(counters)
      data = ClimateData.berkeley(N, L, o.seed)
      val raw = ClimateData.toDF(spark, data).cache()
      raw.count()
      val t1 = System.nanoTime()
      if (last) c0 = counters.snapshot(spark.sparkContext)
      sketch(raw, store, if (last) tr else untraced)
      val t2 = System.nanoTime()
      if (last) c1 = counters.snapshot(spark.sparkContext)
      for (k <- 0 until WarmQueries) { val ((lo, hi), t) = plan(k); query(spark, store, lo, hi, t, untraced) }
      val t3 = System.nanoTime()
      raw.unpersist(blocking = true)
      setupS += (t3 - t2 + t1 - t0) / 1e9
      sketchS += (t2 - t1) / 1e9
      r.check(store.readPair(spark).count() == nPairs.toLong * Windows, "pair sketch row count")
    }
    Session.record(r, spark)
    val storeBytes = store.sizeBytes
    val refs = ranges.map(rg => rg -> reference(data, rg._1, rg._2)).toMap

    // Queries: one closed-loop client following the plan after the warm-up
    // queries. Traced, every other query runs untraced to measure the overhead.
    val t0 = System.nanoTime()
    val queryMs = Seq.newBuilder[Double]
    val overhead = new Overhead(tr, "trace.query_overhead_ms", "query")
    val c1q = counters.snapshot(spark.sparkContext)
    var q = 0
    while (q < MinQueries || System.nanoTime() < o.deadline(t0)) {
      val ((lo, hi), theta) = plan((WarmQueries + q) % plan.length)
      val (edges, ms) = overhead.step(q)(t => query(spark, store, lo, hi, theta, t))
      queryMs += ms
      r.check(agrees(edges, refs((lo, hi)), theta), s"query windows [$lo,$hi] θ=$theta")
      q += 1
    }
    val c2 = counters.snapshot(spark.sparkContext)

    val qs = queryMs.result()
    spark.stop()
    // The state that serves the queries is the store on disk.
    val stateMb = storeBytes / (1024.0 * 1024.0)
    val tracedQueries = overhead.tracedSteps.toDouble
    r.report("setup_s") = (Stats.median(setupS.result()), "s")
    r.report("sketch_s") = (Stats.median(sketchS.result()), "s")
    r.report("store_bytes") = (storeBytes.toDouble, "bytes")
    r.report("query_ms_p50") = (Stats.pct(qs, 0.5), "ms")
    r.report("query_ms_p75") = (Stats.pct(qs, 0.75), "ms")
    r.report("query_samples") = (qs.size.toDouble, "count")
    r.e2e("setup_s") = r.report("setup_s")._1
    r.e2e("sketch_s") = r.report("sketch_s")._1
    r.e2e("query_ms_p50") = r.report("query_ms_p50")._1
    r.e2e("query_ms_p75") = r.report("query_ms_p75")._1
    r.e2e("step_ms_p50") = r.report("query_ms_p50")._1
    r.e2e("step_ms_p75") = r.report("query_ms_p75")._1
    r.e2e("state_mb") = stateMb

    if (tr.on) {
      for (n <- Seq("spark.Sketcher.seriesWindowStats", "spark.Sketcher.pairSketch", "spark.SketchStore.writePair",
                    "spark.SketchStore.readPair", "spark.SparkExact.correlationMatrix"))
        r.layers(s"$n.ms") = tr.meanMs(n)
      for (n <- Seq("spark.Sketcher.seriesWindowStats.rows", "spark.Sketcher.pairSketch.rows", "spark.SketchStore.writePair.bytes"))
        r.layers(n) = tr.counter(n).toDouble
      r.layers("spark.SparkExact.edges.count") = tr.counter("spark.SparkExact.edges.count") / tracedQueries
      r.layers("spark.sketch.shuffle_write_bytes") = (c1._1 - c0._1).toDouble
      r.layers("spark.sketch.task_ms") = (c1._2 - c0._2).toDouble
      r.layers("spark.sketch.gc_ms") = (c1._3 - c0._3).toDouble
      r.layers("spark.query.shuffle_write_bytes") = (c2._1 - c1q._1).toDouble / qs.size
      r.layers("spark.query.task_ms") = (c2._2 - c1q._2).toDouble / qs.size
      r.layers("spark.query.gc_ms") = (c2._3 - c1q._3).toDouble / qs.size
      overhead.report(r)
      r.layers("trace.step_overhead_ms") = r.layers("trace.query_overhead_ms")
    }
    store.delete()
  }
}
