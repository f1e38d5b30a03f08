package repro.core

import scala.collection.mutable

/** The conflict graph of §2.3 for a string pair (S, T).
  *
  * Each vertex is a pair of well-defined segments (one span of S, one of
  * T) with weight msim over the enabled measures; two vertices conflict
  * iff their S-spans or T-spans share a token. Token coverage is stored
  * as 64-bit masks, so a conflict test is two mask intersections and
  * GetSim needs only popcounts (strings are capped at 64 tokens, far
  * above the datasets' maxima).
  */
final class UsimGraph(
    val sLen: Int,
    val tLen: Int,
    val weights: Array[Double],
    val maskS: Array[Long],
    val maskT: Array[Long],
    val sSegs: Array[Segment],
    val tSegs: Array[Segment],
) {
  def size: Int = weights.length

  def conflict(i: Int, j: Int): Boolean =
    (maskS(i) & maskS(j)) != 0L || (maskT(i) & maskT(j)) != 0L

  /** Vertices by descending weight, ties broken by index. */
  lazy val byWeight: Array[Int] = weights.indices.sortBy(i => (-weights(i), i)).toArray

  def isIndependent(sel: Seq[Int]): Boolean = {
    var ms = 0L; var mt = 0L
    sel.forall { i =>
      val ok = (ms & maskS(i)) == 0L && (mt & maskT(i)) == 0L
      ms |= maskS(i); mt |= maskT(i)
      ok
    }
  }

  /** GetSim (Algorithm 1): the unified similarity induced by an
    * independent set — selected weights over the larger induced
    * partition size, uncovered tokens standing as singleton segments.
    */
  def getSim(sel: Iterable[Int]): Double = {
    var w = 0.0; var ms = 0L; var mt = 0L; var n = 0
    for (i <- sel) { w += weights(i); ms |= maskS(i); mt |= maskT(i); n += 1 }
    getSim(w, n, ms, mt)
  }

  /** GetSim from an independent set's aggregates: total weight `w` of
    * its `cnt` vertices, whose spans cover the tokens in `ms` / `mt`.
    * Every uncovered token counts as one singleton segment (Eq 6).
    */
  def getSim(w: Double, cnt: Int, ms: Long, mt: Long): Double = {
    val den = cnt + math.max(sLen - java.lang.Long.bitCount(ms), tLen - java.lang.Long.bitCount(mt))
    if (den == 0) 0.0 else w / den
  }
}

object UsimGraph {

  private def mask(seg: Segment): Long = ((1L << seg.length) - 1L) << seg.start

  /** Interns q-grams as ints, so that two sides prepared on the same
    * table compare gram sets by merging sorted id arrays. One table
    * serves one join; it is mutable and must not be shared across
    * threads.
    */
  final class GramTable {
    private val table = mutable.HashMap.empty[String, Int]

    /** G(text, q) (`Tokenizer.qgrams`) as sorted distinct gram ids. */
    def ids(text: String, q: Int): Array[Int] =
      sortedDistinct(Tokenizer.qgramOccurrences(text, q).iterator
        .map(g => table.getOrElseUpdate(g, table.size)).toArray)
  }

  /** `xs` sorted, duplicates dropped; sorts `xs` in place. */
  private def sortedDistinct(xs: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(xs)
    var n = 0
    for (i <- xs.indices) if (n == 0 || xs(i) != xs(n - 1)) { xs(n) = xs(i); n += 1 }
    java.util.Arrays.copyOf(xs, n)
  }

  /** One string's half of every conflict graph it takes part in: its
    * prepared string, whose segments and lookups (`SegmentLookups`:
    * rule-side codes, taxonomy node, −1 if none, and its path from the
    * root, empty if none) `build` reads in place, with what it adds
    * per segment — q-gram ids (sorted, from `grams`), coverage masks,
    * the single-token and entity segments, and the segments by rule side.
    */
  final class Side private[UsimGraph] (val prepared: PreparedString, val q: Int, val grams: GramTable) {
    val len: Int = prepared.tokens.length
    val gramIds: Array[Array[Int]] = prepared.segments.iterator.map(s => grams.ids(s.text, q)).toArray
    val masks: Array[Long] = prepared.segments.iterator.map(mask).toArray
    val singles: Array[Int] = prepared.segments.indices.filter(prepared.segments(_).length == 1).toArray
    val entities: Array[Int] = prepared.segments.indices.filter(prepared.nodes(_) >= 0).toArray

    /** Every rule side that is a span of the string, sorted, distinct. */
    lazy val allRuleSides: Array[Int] = sortedDistinct(prepared.ruleSides.flatten)

    /** The segments that are each of `allRuleSides`, ascending; read when this is T's side. */
    lazy val bySide: Array[Array[Int]] =
      allRuleSides.map(code => prepared.segments.indices.filter(prepared.ruleSides(_).contains(code)).toArray)

    // What `UsimBound` reads of the string; only bounded verification
    // needs it.

    /** G of the whole string: its segments' gram ids, sorted, distinct. */
    lazy val gramUnion: Array[Int] = sortedDistinct(gramIds.flatten)

    /** Each segment's gram ids as positions in `gramUnion`. */
    lazy val gramPos: Array[Array[Int]] =
      gramIds.map(_.map(java.util.Arrays.binarySearch(gramUnion, _)))

    /** The fewest segments of any tiling of the string by its segments. */
    lazy val minParts: Int = {
      val fewest = Array.fill(len + 1)(len)
      fewest(0) = 0
      for (seg <- prepared.segments) fewest(seg.end) = math.min(fewest(seg.end), fewest(seg.start) + 1)
      fewest(len)
    }
  }

  /** Prepares a string's side for `build` from its prepared string:
    * gram ids on `grams`, once per string instead of once per pair.
    */
  def side(p: PreparedString, q: Int, grams: GramTable): Side = {
    require(p.tokens.length <= 64, "strings longer than 64 tokens unsupported")
    new Side(p, q, grams)
  }

  /** Graph construction of §2.3: enumerate candidate segment pairs per
    * enabled measure — single-token pairs for Jaccard, rule-side pairs
    * for synonyms, entity pairs for the taxonomy — in that order, first
    * occurrence kept; weight each by msim; keep those above 0.
    */
  def build(k: Knowledge, s: Side, t: Side, measures: MeasureSet): UsimGraph = {
    require(s.grams eq t.grams, "sides must be prepared on one gram table")
    require(s.q == t.q, "sides must be prepared with one q")
    val (sp, tp) = (s.prepared, t.prepared)
    val nT = tp.segments.length
    val seen = new Array[Long]((sp.segments.length * nT + 63) >>> 6)
    val cand = mutable.ArrayBuilder.make[Int]
    def add(si: Int, ti: Int): Unit = {
      val c = si * nT + ti
      if ((seen(c >>> 6) & (1L << c)) == 0L) { seen(c >>> 6) |= 1L << c; cand += c }
    }

    // (c) single-token pairs — gram Jaccard applies to any of them.
    if (measures.j) for (si <- s.singles; ti <- t.singles) add(si, ti)
    // (a) synonym-rule pairs: each rule side of S meets its partner side in T.
    if (measures.s) for (si <- sp.ruleSides.indices; code <- sp.ruleSides(si)) {
      val at = java.util.Arrays.binarySearch(t.allRuleSides, code ^ 1)
      if (at >= 0) for (ti <- t.bySide(at)) add(si, ti)
    }
    // (b) taxonomy-entity pairs.
    if (measures.t) for (si <- s.entities; ti <- t.entities) add(si, ti)

    val cs = cand.result()
    val ws = new Array[Double](cs.length)
    val mS = new Array[Long](cs.length)
    val mT = new Array[Long](cs.length)
    val vs = new Array[Segment](cs.length)
    val vt = new Array[Segment](cs.length)
    var n = 0
    for (c <- cs) {
      val si = c / nT
      val ti = c % nT
      // msim (Eq 4) from the prepared lookups, as Measures.msim computes it.
      var w = 0.0
      if (measures.j) w = Measures.jaccard(s.gramIds(si), t.gramIds(ti))
      if (measures.s) {
        val x = Measures.synonym(k, sp.ruleSides(si), tp.ruleSides(ti))
        if (x > w) w = x
      }
      if (measures.t && sp.nodes(si) >= 0 && tp.nodes(ti) >= 0) {
        val x = Measures.taxonomy(sp.paths(si), tp.paths(ti))
        if (x > w) w = x
      }
      if (w > 0.0) {
        ws(n) = w
        mS(n) = s.masks(si)
        mT(n) = t.masks(ti)
        vs(n) = sp.segments(si)
        vt(n) = tp.segments(ti)
        n += 1
      }
    }
    new UsimGraph(s.len, t.len, ws.take(n), mS.take(n), mT.take(n), vs.take(n), vt.take(n))
  }
}
