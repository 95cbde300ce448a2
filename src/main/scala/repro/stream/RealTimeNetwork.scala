package repro.stream

import scala.collection.mutable
import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{Network, SlidingNetwork}

/** One observation of one series at one timestamp. */
final case class Obs(seriesId: Int, t: Long, value: Double)

/** Algorithm 3 (Network-Construct-RealTime) on Structured Streaming.
  *
  * A MemoryStream of [[Obs]] rows feeds `foreachBatch`; the driver-side
  * assembler buffers out-of-order rows until a full basic window of B
  * points is present *for every series* (the paper: "the algorithm waits
  * until all new B data points arrive"), then hands the window batch to a
  * [[repro.core.SlidingNetwork]], which advances every pair's correlation
  * via Lemma 2. The current network is queryable at any time between
  * batches.
  *
  * @param spark    session to attach the stream to
  * @param nSeries  number of series
  * @param b        basic window size B
  * @param nWindows n_s windows in the sliding query window (query size m = n_s·B)
  */
final class RealTimeNetwork(spark: SparkSession, val nSeries: Int, val b: Int, val nWindows: Int) {

  val sliding = new SlidingNetwork(nSeries, nWindows)

  // t → per-series values observed so far at that timestamp, which series
  // they came from, and how many distinct series that is
  private val pendingValues = mutable.LongMap.empty[Array[Double]]
  private val pendingSeen = mutable.LongMap.empty[mutable.BitSet]
  private val pendingCounts = mutable.LongMap.empty[Int]
  private var nextWindowStart = 0L
  private var windowsIngested = 0L

  val input: MemoryStream[Obs] = MemoryStream[Obs](spark)(Encoders.product[Obs])

  private val query: StreamingQuery = input
    .toDS()
    .writeStream
    .outputMode("append")
    .foreachBatch { (batch: org.apache.spark.sql.Dataset[Obs], _: Long) =>
      offer(batch.collect())
    }
    .start()

  /** Driver-side assembly; synchronized because foreachBatch runs on the
    * streaming thread while tests read the matrix from the main thread.
    */
  private def offer(rows: Array[Obs]): Unit = synchronized {
    rows.foreach { o =>
      require(o.seriesId >= 0 && o.seriesId < nSeries, s"bad series ${o.seriesId}")
      val arr = pendingValues.getOrElseUpdate(o.t, new Array[Double](nSeries))
      arr(o.seriesId) = o.value
      // a duplicate (series, t) row must not stand in for a missing series
      if (pendingSeen.getOrElseUpdate(o.t, mutable.BitSet.empty).add(o.seriesId))
        pendingCounts(o.t) = pendingCounts.getOrElse(o.t, 0) + 1
    }
    var complete = true
    while (complete) {
      var t = nextWindowStart
      while (complete && t < nextWindowStart + b) {
        if (pendingCounts.getOrElse(t, 0) < nSeries) complete = false
        t += 1
      }
      if (complete) {
        val windows = Array.tabulate(nSeries)(i =>
          Array.tabulate(b)(k => pendingValues(nextWindowStart + k)(i)))
        sliding.ingest(windows)
        (nextWindowStart until nextWindowStart + b).foreach { tt =>
          pendingValues.remove(tt); pendingSeen.remove(tt); pendingCounts.remove(tt)
        }
        nextWindowStart += b
        windowsIngested += 1
      }
    }
  }

  /** Push rows into the stream and block until they are processed. */
  def sendAndProcess(rows: Seq[Obs]): Unit = {
    input.addData(rows)
    query.processAllAvailable()
  }

  /** Number of complete basic windows ingested so far. */
  def ingestedWindows: Long = synchronized(windowsIngested)

  def matrix(): Array[Array[Double]] = synchronized(sliding.matrix())
  def network(theta: Double): Network = synchronized(sliding.network(theta))

  def stop(): Unit = query.stop()
}
