package repro.core

/** A well-defined segment (Def 1): a consecutive token span [start, end)
  * of a string that matches a rule side, a taxonomy entity, or is a
  * single token.
  */
final case class Segment(start: Int, end: Int, tokens: Vector[String]) {
  require(end > start, "empty segment")
  def length: Int = end - start
  def overlaps(o: Segment): Boolean = start < o.end && o.start < end
  def text: String = Tokenizer.text(tokens)
}

/** Enumeration of well-defined segments (Defs 1–2). */
object Segments {

  /** All well-defined segments of `toks`: every single token, plus every
    * span of 2..k tokens matching a rule side or taxonomy entity.
    * Returned in (start, end) lexicographic order.
    */
  def wellDefined(k: Knowledge, toks: Vector[String]): Vector[Segment] = {
    val out = Vector.newBuilder[Segment]
    val n = toks.length
    val maxLen = math.min(k.maxSegmentTokens, n)
    var i = 0
    while (i < n) {
      out += Segment(i, i + 1, Vector(toks(i)))
      var len = 2
      while (len <= maxLen && i + len <= n) {
        val span = toks.slice(i, i + len)
        if (k.byLhs.contains(span) || k.byRhs.contains(span) || k.taxonomy.byName.contains(span))
          out += Segment(i, i + len, span)
        len += 1
      }
      i += 1
    }
    out.result()
  }

  /** True iff `segs` is a well-defined partition (Def 2) of an n-token
    * string: pairwise disjoint and jointly covering all n tokens.
    */
  def isPartition(segs: Seq[Segment], n: Int): Boolean = {
    val covered = segs.iterator.flatMap(s => s.start until s.end).toVector
    covered.distinct.size == covered.size && covered.sorted == (0 until n).toVector
  }
}

/** What the knowledge says about each of `segments`, each lookup done
  * once per segment, on first use: pebble generation (`Pebbles.generate`)
  * and the verifier's side (`UsimGraph.side`) read the same arrays, each
  * only what its measures need.
  */
class SegmentLookups(val knowledge: Knowledge, val segments: IndexedSeq[Segment]) {
  private def each[A: scala.reflect.ClassTag](f: Vector[String] => A): Array[A] =
    segments.iterator.map(s => f(s.tokens)).toArray

  /** The rule sides each segment is, its rules in `Knowledge.rulesTouching`
    * order: code 2·rid for rule rid's lhs, 2·rid + 1 for its rhs (both,
    * lhs first, when the two sides are equal), so a segment that is one
    * side of a rule meets the other side's code `code ^ 1`.
    */
  lazy val ruleSides: Array[Array[Int]] = each { toks =>
    val codes = Array.newBuilder[Int]
    for (rid <- knowledge.rulesTouching(toks)) {
      val r = knowledge.rule(rid)
      if (r.lhs == toks) codes += 2 * rid
      if (r.rhs == toks) codes += 2 * rid + 1
    }
    codes.result()
  }

  /** Each segment's taxonomy node, −1 if it names none. */
  lazy val nodes: Array[Int] = each(knowledge.taxonomy.byName.getOrElse(_, -1))

  /** Each segment's node with its ancestors, root first (a path of |n| nodes), empty if none. */
  lazy val paths: Array[Array[Int]] =
    nodes.map(n => if (n < 0) Array.emptyIntArray else knowledge.taxonomy.ancestors(n).reverse.toArray)
}

/** One string prepared once per call: its tokens, its well-defined
  * segments from one `Segments.wellDefined`, and their lookups. The
  * global order, the signatures (`SignatureContext`) and the verifier's
  * side (`UsimGraph.side`) of the string all read this one value.
  */
final class PreparedString private (k: Knowledge, val tokens: Vector[String])
    extends SegmentLookups(k, Segments.wellDefined(k, tokens))

object PreparedString {
  def apply(k: Knowledge, tokens: Vector[String]): PreparedString = new PreparedString(k, tokens)
  def apply(k: Knowledge, s: String): PreparedString = new PreparedString(k, Tokenizer.tokens(s))
}
