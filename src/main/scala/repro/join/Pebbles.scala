package repro.join

import repro.core._

/** One pebble occurrence: a key shared across strings (what the global
  * order ranks; signatures and inverted lists hold the rank), its
  * weight, and the (segment, measure) group it was generated from (what
  * AS/TW/DP aggregate over). Paper §3.1, Table 2.
  *
  * Key namespaces keep measures from colliding: `g:` gram, `s:` rule
  * lhs, `t:` taxonomy node id.
  */
final case class PebbleInstance(key: String, weight: Double, segIdx: Int, measure: Char)

object Pebbles {

  /** All pebble instances of `segments`, unsorted: `generate` over
    * their lookups, made here.
    */
  def generate(
      k: Knowledge,
      segments: IndexedSeq[Segment],
      measures: MeasureSet,
      q: Int,
  ): Vector[PebbleInstance] =
    generate(new SegmentLookups(k, segments), measures, q)

  /** All pebble instances of a string's well-defined segments, unsorted,
    * by segment, then measure J < S < T.
    *
    * Jaccard: each q-gram of segment P, weight 1/|G(P,q)|.
    * Synonym: lhs(R) for each rule R of P's rule-side codes, weight C(R) —
    * both the lhs-side and the rhs-side string emit the lhs key so they collide.
    * Taxonomy: the matched node and all its ancestors, each 1/|n|.
    */
  def generate(s: SegmentLookups, measures: MeasureSet, q: Int): Vector[PebbleInstance] = {
    val out = Vector.newBuilder[PebbleInstance]
    var si = 0
    while (si < s.segments.length) {
      if (measures.j) {
        val grams = Tokenizer.qgramOccurrences(s.segments(si).text, q)
        val w = 1.0 / grams.length
        grams.foreach(g => out += PebbleInstance("g:" + g, w, si, 'J'))
      }
      if (measures.s) {
        val codes = s.ruleSides(si) // a rule's codes are adjacent: one pebble per rule
        for (x <- codes.indices if x == 0 || (codes(x) >>> 1) != (codes(x - 1) >>> 1)) {
          val r = s.knowledge.rule(codes(x) >>> 1)
          out += PebbleInstance("s:" + Tokenizer.text(r.lhs), r.c, si, 'S')
        }
      }
      if (measures.t) {
        val path = s.paths(si) // |n| nodes, so each weighs 1/|n|; emitted node first
        var a = path.length
        while (a > 0) { a -= 1; out += PebbleInstance("t:" + path(a), 1.0 / path.length, si, 'T') }
      }
      si += 1
    }
    out.result()
  }

  /** Global frequency order over per-string keys, rank 0 = rarest: each
    * key counts once per string that contains it, and keys are ranked by
    * (count, key). Every global order is built here (`LocalJoin.buildOrder`,
    * which `SparkJoin` calls too, `AdaptJoin.gramOrder`, `rankSets`). The
    * paper sorts pebbles "by the ascending order of frequencies" so that
    * signatures keep the rarest (most selective) pebbles.
    */
  def keyOrder(perString: Iterator[IterableOnce[String]]): Map[String, Int] = {
    val freq = scala.collection.mutable.HashMap[String, Long]()
    for (keys <- perString; key <- keys.iterator.toSet[String])
      freq.update(key, freq.getOrElse(key, 0L) + 1)
    freq.toSeq.sortBy { case (k, f) => (f, k) }.iterator.zipWithIndex
      .map { case ((k, _), r) => k -> r }
      .toMap
  }

  /** Each key's rank in a global order. A key the order lacks ranks
    * after every key it has: `order.size` plus its alphabetical index
    * among the missing keys of `keys` (an empty or partial order, as in
    * unit tests). `order` must hold the dense ranks `0 until order.size`
    * that `keyOrder` gives, and ranks from two calls are comparable only
    * when the order covers both calls' keys — every join's order covers
    * its collection.
    */
  def ranksOf(keys: IndexedSeq[String], order: Map[String, Int]): Array[Int] = {
    val ranks = keys.iterator.map(order.getOrElse(_, -1)).toArray
    if (ranks.contains(-1)) {
      val missing = keys.indices.iterator.filter(ranks(_) < 0).map(keys).toSeq.distinct.sorted
        .zipWithIndex.toMap
      for (p <- ranks.indices if ranks(p) < 0) ranks(p) = order.size + missing(keys(p))
    }
    ranks
  }

  /** Per-string key sets as sorted rank arrays under their own
    * frequency order (`keyOrder`): how the baselines key their
    * signatures for `LocalJoin.filterStage`.
    */
  def rankSets(sigs: IndexedSeq[Set[String]]): IndexedSeq[Array[Int]] = {
    val order = keyOrder(sigs.iterator)
    sigs.map(_.iterator.map(order).toArray.sorted)
  }
}
