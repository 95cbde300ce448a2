package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.Network

/** Command-line options of one benchmark run. */
final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String) {
  /** Wall-clock end of a timed phase that starts at `startNs`. */
  def deadline(startNs: Long): Long = startNs + seconds * 1000000000L
}

/** Everything one run reports: environment, the workload's metrics under
  * the names of its definition, the shared metrics and the correctness
  * checks.
  */
final class Result {
  val env = mutable.LinkedHashMap.empty[String, Any]
  /** Metrics under the names the workload definition uses (printed as a report line). */
  val report = mutable.LinkedHashMap.empty[String, (Double, String)]
  /** End-to-end metrics shared by every workload (see Main.EndToEnd). */
  val e2e = mutable.LinkedHashMap.empty[String, Double]
  /** Per-layer metrics of the traced run (see Main.PerLayer). */
  val layers = mutable.LinkedHashMap.empty[String, Double]
  var attempted = 0L
  var failed = 0L
  private var shown = 0

  /** Count one correctness check; a failing one is logged, never thrown. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (shown < 10) { Console.err.println(s"[perfbench] check failed: $what"); shown += 1 }
    }
  }
}

object Stats {
  /** Nearest-rank percentile of the samples (p in [0, 1]). */
  def pct(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = pct(xs, 0.5)

  /** Elapsed ms of `f` together with its result. */
  def timed[A](f: => A): (A, Double) = { val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e6) }

  /** Live heap after a full collection, in MB. */
  def liveHeapMb(): Double = {
    val rt = Runtime.getRuntime
    var i = 0
    while (i < 3) { System.gc(); Thread.sleep(50); i += 1 }
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }
}

object Session {
  /** Worker threads of the local Spark master: the host's cores, at most 4. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val shufflePartitions = 8

  def start(o: Opts): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${o.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${o.workDir}/warehouse")
      .config("spark.sql.streaming.checkpointLocation", s"${o.workDir}/checkpoints")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def record(r: Result, s: SparkSession): Unit = {
    r.env("spark_version") = s.version
    r.env("spark_master") = s.sparkContext.master
    r.env("shuffle_partitions") = s.conf.get("spark.sql.shuffle.partitions")
  }
}

/** Closed-loop steps of a traced run alternate between traced and
  * untraced; the difference of their medians is the tracing overhead,
  * reported as `metric`. A traced step is a root span named `name`, so
  * the layer spans of one step share a parent.
  */
final class Overhead(tr: Trace, metric: String, name: String) {
  private val off = new Trace(false)
  private val traced = Seq.newBuilder[Double]
  private val untraced = Seq.newBuilder[Double]
  var tracedSteps = 0L

  /** Run step `k` (traced when k is even and tracing is on); returns its result and ms. */
  def step[A](k: Long)(f: Trace => A): (A, Double) = {
    val on = tr.on && k % 2 == 0
    val (a, ms) = Stats.timed(if (on) tr.span(name)(f(tr)) else f(off))
    if (on) { traced += ms; tracedSteps += 1 } else untraced += ms
    (a, ms)
  }

  def report(r: Result): Unit = {
    val t = traced.result(); val u = untraced.result()
    r.layers(metric) = if (t.isEmpty || u.isEmpty) 0.0 else Stats.median(t) - Stats.median(u)
  }
}

object Check {
  /** Each pair (i, j) of `pairs` has `corr` within `tol` of `ref`, and is an
    * edge of `net`, with that weight, exactly when `ref` exceeds θ; pairs
    * within `tol` of θ may go either way. The largest |corr − ref| seen is
    * kept in `drift(0)`.
    */
  def network(net: Network, pairs: Iterator[(Int, Int)], theta: Double, tol: Double,
              ref: (Int, Int) => Double, corr: (Int, Int) => Double, drift: Array[Double]): Boolean = {
    val edges = net.edges.iterator.map { case (i, j, c) => (i, j) -> c }.toMap
    pairs.forall { case (i, j) =>
      val r = ref(i, j); val c = corr(i, j)
      drift(0) = math.max(drift(0), math.abs(c - r))
      math.abs(c - r) <= tol && (edges.get((i, j)) match {
        case Some(e) => e == c && r > theta - tol
        case None => r <= theta + tol
      })
    }
  }
}
