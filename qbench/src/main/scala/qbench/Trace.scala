package qbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run. Spans are recorded around
  * the benchmark's own calls into each layer (set-up, plan building, engine
  * construction, `run()`, the result check); spans inside the engine are
  * not recorded. When disabled, `span` only runs its body.
  */
final class Trace(val enabled: Boolean) {
  final case class Span(id: Int, parent: Int, name: String, exec: Int, start: Long, end: Long) {
    def ns: Long = end - start
  }

  val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0
  private var stack: List[Int] = Nil
  /** Identifier shared by the spans of one query execution (-1: none). */
  var exec: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, name, exec, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  /** Total duration of spans named `name` whose execution id is in `execs`. */
  def totalNs(name: String, execs: Int => Boolean = _ => true): Long =
    spans.iterator.filter(s => s.name == name && execs(s.exec)).map(_.ns).sum

  /** Self time per span name: duration minus the time covered by children. */
  def selfNs: Map[String, Long] = {
    val childNs = spans.groupMapReduce(_.parent)(_.ns)(_ + _)
    spans.groupMapReduce(_.name)(s => s.ns - childNs.getOrElse(s.id, 0L))(_ + _)
  }

  def write(f: File): Unit = {
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f)
    try spans.sortBy(_.start).foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","exec":${s.exec},""" +
        s""""start_ns":${s.start},"end_ns":${s.end}}""")
    } finally w.close()
  }
}
