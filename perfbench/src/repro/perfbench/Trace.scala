package repro.perfbench

import java.io.PrintWriter
import scala.collection.mutable

/** Span recorder for the traced run. Spans (name, start, end, parent) are
  * kept in memory and written out once the run ends. Calls made once per
  * pair would add millions of spans, so those are recorded as named
  * aggregates (call count and total time) instead; the self time of the
  * span around them is its duration minus the aggregate's time.
  *
  * With tracing off every method is a pass-through: the untraced run pays
  * one branch per call.
  */
final class Trace(val on: Boolean) {
  import Trace._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val aggs = mutable.LinkedHashMap.empty[String, Agg]
  private val counts = mutable.LinkedHashMap.empty[String, Long]
  private var stack: List[Int] = Nil
  private var nextId = 0

  /** Time `f` as a span named `name`, child of the innermost open span. */
  def span[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val id = nextId
      nextId += 1
      val parent = if (stack.isEmpty) -1 else stack.head
      stack = id :: stack
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, name, t0, t1)
      }
    }

  /** Handle of the aggregate `name`: times calls without storing spans. */
  def agg(name: String): Agg = if (!on) Trace.Off else aggs.getOrElseUpdate(name, new Agg(true))

  /** Add `v` to the counter `name`. */
  def count(name: String, v: Long): Unit = if (on) counts(name) = counts.getOrElse(name, 0L) + v

  /** Value of the counter `name` (0 if never counted). */
  def counter(name: String): Long = counts.getOrElse(name, 0L)

  private def named(name: String) = spans.iterator.filter(_.name == name)

  /** Number of spans named `name`. */
  def calls(name: String): Long = named(name).size.toLong

  /** Total duration of the spans named `name`, in ms. */
  def totalMs(name: String): Double = named(name).map(_.ns).sum / 1e6

  /** Mean duration per span named `name`, in ms (0 if none). */
  def meanMs(name: String): Double = { val c = calls(name); if (c == 0) 0.0 else totalMs(name) / c }

  /** Calls recorded into aggregate `name`. */
  def aggCalls(name: String): Long = aggs.get(name).map(_.calls).getOrElse(0L)

  /** Total time recorded into aggregate `name`, in ms. */
  def aggMs(name: String): Double = aggs.get(name).map(_.ns / 1e6).getOrElse(0.0)

  /** Write every span and aggregate as JSON lines. */
  def write(path: String): Unit = {
    val w = new PrintWriter(path, "UTF-8")
    try {
      spans.foreach(s =>
        w.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""))
      aggs.foreach { case (n, a) => w.println(s"""{"aggregate":"$n","calls":${a.calls},"ns":${a.ns}}""") }
      counts.foreach { case (n, v) => w.println(s"""{"counter":"$n","value":$v}""") }
    } finally w.close()
  }
}

object Trace {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def ns: Long = endNs - startNs
  }
  final class Agg(on: Boolean) {
    var calls = 0L
    var ns = 0L

    def apply[A](f: => A): A =
      if (!on) f
      else {
        val t0 = System.nanoTime()
        try f
        finally { calls += 1; ns += System.nanoTime() - t0 }
      }
  }
  private val Off = new Agg(false)
}
