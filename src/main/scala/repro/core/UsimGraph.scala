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

  /** Graph construction of §2.3: enumerate candidate segment pairs per
    * enabled measure, weight each by msim, merge duplicates by max.
    */
  def build(
      k: Knowledge,
      sToks: Vector[String],
      tToks: Vector[String],
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): UsimGraph = {
    require(sToks.length <= 64 && tToks.length <= 64, "strings longer than 64 tokens unsupported")
    val sSegs = Segments.wellDefined(k, sToks)
    val tSegs = Segments.wellDefined(k, tToks)
    val tBySpan: Map[Vector[String], Seq[Int]] =
      tSegs.indices.groupBy(i => tSegs(i).tokens).view.mapValues(_.toSeq).toMap

    val cand = mutable.LinkedHashSet[(Int, Int)]()

    // Gram sets per distinct token text, computed once (the hot path of
    // pairwise verification — Jaccard over all single-token pairs).
    val gramCache = mutable.HashMap[String, Set[String]]()
    def grams(text: String): Set[String] =
      gramCache.getOrElseUpdate(text, Tokenizer.qgrams(text, q))

    // (c) single-token pairs — gram Jaccard applies to any of them.
    if (measures.j) {
      val sSingles = sSegs.indices.filter(sSegs(_).length == 1)
      val tSingles = tSegs.indices.filter(tSegs(_).length == 1)
      for (si <- sSingles; ti <- tSingles) cand += ((si, ti))
    }
    // (a) synonym-rule pairs, either direction.
    if (measures.s) {
      for (si <- sSegs.indices; rid <- k.rulesTouching(sSegs(si).tokens)) {
        val r = k.rule(rid)
        val targets =
          (if (r.lhs == sSegs(si).tokens) tBySpan.getOrElse(r.rhs, Nil) else Nil) ++
            (if (r.rhs == sSegs(si).tokens) tBySpan.getOrElse(r.lhs, Nil) else Nil)
        for (ti <- targets) cand += ((si, ti))
      }
    }
    // (b) taxonomy-entity pairs.
    if (measures.t) {
      val sEnt = sSegs.indices.filter(i => k.taxonomy.byName.contains(sSegs(i).tokens))
      val tEnt = tSegs.indices.filter(i => k.taxonomy.byName.contains(tSegs(i).tokens))
      for (si <- sEnt; ti <- tEnt) cand += ((si, ti))
    }

    val ws = Array.newBuilder[Double]
    val mS = Array.newBuilder[Long]
    val mT = Array.newBuilder[Long]
    val vs = Array.newBuilder[Segment]
    val vt = Array.newBuilder[Segment]
    for ((si, ti) <- cand) {
      // msim inline: Jaccard via the gram cache, synonym/taxonomy via the
      // same lookups as Measures.msim.
      var w = 0.0
      if (measures.j) w = Measures.jaccard(grams(sSegs(si).text), grams(tSegs(ti).text))
      if (measures.s) {
        val x = Measures.synonym(k, sSegs(si).tokens, tSegs(ti).tokens)
        if (x > w) w = x
      }
      if (measures.t) {
        val x = Measures.taxonomy(k, sSegs(si).tokens, tSegs(ti).tokens)
        if (x > w) w = x
      }
      if (w > 0.0) {
        ws += w
        mS += mask(sSegs(si))
        mT += mask(tSegs(ti))
        vs += sSegs(si)
        vt += tSegs(ti)
      }
    }
    new UsimGraph(sToks.length, tToks.length, ws.result(), mS.result(), mT.result(),
      vs.result(), vt.result())
  }
}
