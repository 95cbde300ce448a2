package org.apache.spark

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryListener

/** Spark-side counters for the traced run. Lives in Spark's package only
  * to reach `listenerBus.waitUntilEmpty`: listener events arrive
  * asynchronously, so a phase's counters are read after the bus drains.
  */
final class PerfbenchTaskCounters extends SparkListener {
  val shuffleWriteBytes = new AtomicLong
  val taskMs = new AtomicLong
  val gcMs = new AtomicLong

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      taskMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
    }
  }

  /** (shuffle write bytes, task ms, GC ms) after the bus drains. */
  def snapshot(sc: SparkContext): (Long, Long, Long) = {
    sc.listenerBus.waitUntilEmpty()
    (shuffleWriteBytes.get, taskMs.get, gcMs.get)
  }
}

/** Per-micro-batch durations reported by Structured Streaming. */
final class PerfbenchStreamCounters extends StreamingQueryListener {
  val batches = new AtomicLong
  val addBatchMs = new AtomicLong
  val triggerMs = new AtomicLong

  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = {
    val d = e.progress.durationMs
    if (e.progress.numInputRows > 0) {
      batches.incrementAndGet()
      if (d.containsKey("addBatch")) addBatchMs.addAndGet(d.get("addBatch"))
      if (d.containsKey("triggerExecution")) triggerMs.addAndGet(d.get("triggerExecution"))
    }
  }

  /** (micro-batches with input, addBatch ms, triggerExecution ms) after the bus drains. */
  def snapshot(spark: SparkSession): (Long, Long, Long) = {
    spark.sparkContext.listenerBus.waitUntilEmpty()
    (batches.get, addBatchMs.get, triggerMs.get)
  }
}
