package repro.perfbench

import scala.collection.mutable

/** One timed call into a layer. `parent` is the id of the enclosing
  * span (-1 at a request's root); spans of one request share `request`.
  */
final class Span(val id: Int, val parent: Int, val request: Int, val name: String, val start: Long) {
  var end: Long = start
  def nanos: Long = end - start
}

/** In-memory span recorder. The benchmark wraps each call into a layer's
  * public function in `span`; a disabled tracer only evaluates the body,
  * so untraced requests run the same calls without recording.
  */
final class Tracer(val on: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var current = -1
  private var currentRequest = -1

  def request[A](id: Int)(body: => A): A = {
    currentRequest = id
    span("request")(body)
  }

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val s = new Span(spans.length, current, currentRequest, name, System.nanoTime())
      spans += s
      val saved = current
      current = s.id
      try body
      finally { s.end = System.nanoTime(); current = saved }
    }

  /** Per request: span name -> (inclusive nanos, self nanos, calls). A
    * span's self time is its duration minus its children's; children of
    * one span never overlap because every call is sequential.
    */
  def byRequest: Map[Int, Map[String, (Long, Long, Int)]] = {
    val childNanos = new Array[Long](spans.length)
    for (s <- spans if s.parent >= 0) childNanos(s.parent) += s.nanos
    spans.groupBy(_.request).map { case (req, ss) =>
      req -> ss.groupBy(_.name).map { case (name, xs) =>
        name -> ((xs.map(_.nanos).sum, xs.map(s => s.nanos - childNanos(s.id)).sum, xs.length))
      }
    }
  }

  /** Writes every span as tab-separated `id parent request name start end`. */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try {
      out.println("id\tparent\trequest\tname\tstart_ns\tend_ns")
      for (s <- spans) out.println(s"${s.id}\t${s.parent}\t${s.request}\t${s.name}\t${s.start}\t${s.end}")
    } finally out.close()
  }
}
