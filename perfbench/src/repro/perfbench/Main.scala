package repro.perfbench

import java.nio.file.{Files, Paths}

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>`.
  *
  * Prints an environment line, a report line with the workload's own
  * metric names, and as the last line the result object: end-to-end
  * metrics from an untraced run, per-layer metrics from a traced one.
  */
object Main {

  /** End-to-end metrics every workload reports, with units. What each
    * means per workload is listed in perfbench/README.md.
    */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "sketch_s" -> "s",
    "query_ms_p50" -> "ms",
    "query_ms_p75" -> "ms",
    "step_ms_p50" -> "ms",
    "step_ms_p75" -> "ms",
    "state_mb" -> "MB",
  )

  /** Per-layer metrics every traced run reports (0 where a workload bypasses the layer). */
  val PerLayer: Seq[(String, String)] = Seq(
    "spark.Sketcher.seriesWindowStats.ms" -> "ms",
    "spark.Sketcher.seriesWindowStats.rows" -> "count",
    "spark.Sketcher.pairSketch.ms" -> "ms",
    "spark.Sketcher.pairSketch.rows" -> "count",
    "spark.SketchStore.writePair.ms" -> "ms",
    "spark.SketchStore.writePair.bytes" -> "bytes",
    "spark.sketch.shuffle_write_bytes" -> "bytes",
    "spark.sketch.task_ms" -> "ms",
    "spark.sketch.gc_ms" -> "ms",
    "spark.SketchStore.readPair.ms" -> "ms",
    "spark.SparkExact.correlationMatrix.ms" -> "ms",
    "spark.SparkExact.edges.count" -> "count",
    "spark.query.shuffle_write_bytes" -> "bytes",
    "spark.query.task_ms" -> "ms",
    "spark.query.gc_ms" -> "ms",
    "core.BasicWindows.sketch.ms" -> "ms",
    "core.BasicWindows.pairCorrs.ms" -> "ms",
    "core.BasicWindows.pairCorrs.count" -> "count",
    "core.ExactCorrelation.arbitrary.ms" -> "ms",
    "core.ExactCorrelation.arbitrary.calls" -> "count",
    "core.Network.fromPairs.self_ms" -> "ms",
    "core.SlidingNetwork.ingest.ms" -> "ms",
    "core.SlidingNetwork.matrix.ms" -> "ms",
    "core.Network.fromMatrix.ms" -> "ms",
    "core.WindowStats.of.replay_ms" -> "ms",
    "core.WindowStats.pearson.replay_ms" -> "ms",
    "core.lemma2.self_ms" -> "ms",
    "core.lemma2.drift_max" -> "corr",
  ) ++ Seq("0.5", "0.75", "0.9").flatMap(t => Seq(
    s"core.Pruning.theta_$t.computed" -> "count",
    s"core.Pruning.theta_$t.inferred" -> "count",
    s"core.Pruning.theta_$t.ms" -> "ms",
  )) ++ Seq(
    "dft.SlidingApproxNetwork.ingest.ms" -> "ms",
    "dft.DFT.transform.replay_ms" -> "ms",
    "stream.sendAndProcess.ms" -> "ms",
    "stream.microbatches" -> "count",
    "stream.addBatch_ms" -> "ms",
    "stream.triggerExecution_ms" -> "ms",
    "stream.windows_ingested" -> "count",
    "stream.rows_sent" -> "count",
    "stream.rows_pending" -> "count",
    "stream.rows_leaked" -> "count",
    "stream.core_ingest.replay_ms" -> "ms",
    "trace.step_overhead_ms" -> "ms",
    "trace.query_overhead_ms" -> "ms",
  )

  private def fmt(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  private def jsonValue(v: Any): String = v match {
    case d: Double => fmt(d)
    case f: Float => fmt(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case b: Boolean => b.toString
    case s => "\"" + s.toString.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  }

  private def metricsJson(ms: Seq[(String, Double, String)]): String =
    ms.map { case (n, v, u) => s""""$n": {"value": ${fmt(v)}, "unit": "$u"}""" }.mkString("{", ", ", "}")

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Opts(kv("workload"), kv("seed").toLong, kv("seconds").toInt, kv("trace") == "1", kv("work-dir"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    Files.createDirectories(Paths.get(o.workDir))
    val tr = new Trace(o.trace)
    val r = new Result
    r.env("workload") = o.workload
    r.env("seed") = o.seed
    r.env("seconds") = o.seconds
    r.env("trace") = o.trace
    r.env("nproc") = Runtime.getRuntime.availableProcessors()
    r.env("jvm") = s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"
    r.env("max_heap_mb") = Runtime.getRuntime.maxMemory() / (1024 * 1024)
    val t0 = System.nanoTime()
    o.workload match {
      case "spark-hist" => SparkHist.run(o, tr, r)
      case "mem-ncea" => MemNcea.run(o, tr, r)
      case "stream-rt" => StreamRt.run(o, tr, r)
      case w => throw new IllegalArgumentException(s"unknown workload $w")
    }
    r.env("wall_s") = (System.nanoTime() - t0) / 1e9
    println(r.env.map { case (k, v) => s""""$k": ${jsonValue(v)}""" }.mkString("""{"env": {""", ", ", "}}"))
    println(s"""{"report": ${metricsJson(r.report.toSeq.map { case (n, (v, u)) => (n, v, u) })}, "ops": ${r.attempted}, "failed_ops": ${r.failed}}""")
    if (o.trace) tr.write(s"${o.workDir}/trace-${o.workload}-${o.seed}.jsonl")
    val wanted = if (o.trace) PerLayer else EndToEnd
    val src = if (o.trace) r.layers else r.e2e
    val missing = wanted.map(_._1).filterNot(src.contains)
    if (!o.trace && missing.nonEmpty) throw new IllegalStateException(s"metrics not measured: ${missing.mkString(", ")}")
    val metrics = wanted.map { case (n, u) => (n, src.getOrElse(n, 0.0), u) }
    println(s"""{"correct": ${r.failed == 0}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": ${metricsJson(metrics)}}""")
  }
}
