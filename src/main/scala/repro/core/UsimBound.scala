package repro.core

/** An upper bound on a prepared pair's USIM that needs no conflict
  * graph: the inequality in the proof of Lemma 1, applied to one pair.
  *
  * For one direction (S against T), each segment P of S gets a bound
  * u(P) on msim(P, Q) over every segment Q of T, per enabled measure:
  *  - J: |G(P) ∩ G(T)| / |G(P)|, G(T) the union of T's segments' gram
  *    sets. Distinct grams, not pebble mass: a segment that repeats a
  *    gram weighs each occurrence less than the set Jaccard counts it.
  *  - S: Eq 2 against the whole of T: the largest C(R) over the rules
  *    with P on one side and a span of T on the other.
  *  - T: the largest Eq 3 of P's node to T's entities.
  *
  * An independent set A induces a tiling of S with c = |A| + |S| − cov_S
  * tiles (uncovered tokens as singletons) and one of T with at least
  * minParts(T) tiles, so GetSim(A) = W(A) / (|A| + max(|S| − cov_S,
  * |T| − cov_T)) ≤ best(c) / max(c, minParts(T)), where best(c) is the
  * largest Σ u over tilings of S with c tiles (a DP over token
  * positions). The Hungarian path's assignment is the all-singleton
  * tiling, so the bound holds for exact USIM and for Algorithm 1 alike.
  * Each direction alone is such a bound; the pair's is the smaller.
  *
  * Holds scratch buffers: one instance per thread.
  */
final class UsimBound(k: Knowledge, measures: MeasureSet) {
  private var sharedS = new Array[Boolean](64)
  private var sharedT = new Array[Boolean](64)
  private var best = new Array[Double](64)

  /** The bound of (s, t). When S's direction alone is below `cut`, that
    * is returned without running T's: a caller that prunes below `cut`
    * needs no more.
    */
  def apply(s: UsimGraph.Side, t: UsimGraph.Side, cut: Double = 0.0): Double = {
    if (measures.j) shareGrams(s.gramUnion, t.gramUnion)
    val first = direction(s, t, sharedS)
    if (first < cut) first else math.min(first, direction(t, s, sharedT))
  }

  /** Marks the grams each union shares with the other: one merge. */
  private def shareGrams(a: Array[Int], b: Array[Int]): Unit = {
    if (sharedS.length < a.length) sharedS = new Array[Boolean](a.length)
    else java.util.Arrays.fill(sharedS, 0, a.length, false)
    if (sharedT.length < b.length) sharedT = new Array[Boolean](b.length)
    else java.util.Arrays.fill(sharedT, 0, b.length, false)
    var i = 0
    var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { sharedS(i) = true; sharedT(j) = true; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
  }

  /** u(P) for segment `si` of `s` against the whole of `t`. */
  private def segment(s: UsimGraph.Side, si: Int, t: UsimGraph.Side, shared: Array[Boolean]): Double = {
    var u = 0.0
    if (measures.j) {
      val pos = s.gramPos(si)
      var hit = 0
      var x = 0
      while (x < pos.length) { if (shared(pos(x))) hit += 1; x += 1 }
      if (hit > 0) u = hit.toDouble / pos.length
    }
    if (measures.s) {
      val x = Measures.synonym(k, s.prepared.ruleSides(si), t.allRuleSides)
      if (x > u) u = x
    }
    if (measures.t && s.prepared.nodes(si) >= 0) {
      val a = s.prepared.paths(si)
      val paths = t.prepared.paths
      var x = 0
      while (x < t.entities.length) {
        val sim = Measures.taxonomy(a, paths(t.entities(x)))
        if (sim > u) u = sim
        x += 1
      }
    }
    u
  }

  /** max over c of best(c) / max(c, minParts(t)) for tilings of `s`. */
  private def direction(s: UsimGraph.Side, t: UsimGraph.Side, shared: Array[Boolean]): Double = {
    val n = s.len
    if (n == 0) return 0.0
    // best(pos * w + c): largest Σu tiling tokens [0, pos) with c tiles, −1 if none
    val w = n + 1
    if (best.length < w * w) best = new Array[Double](w * w)
    java.util.Arrays.fill(best, 0, w * w, -1.0)
    best(0) = 0.0
    val segs = s.prepared.segments
    var si = 0
    while (si < segs.length) { // by start, so every tiling of [0, start) is final
      val seg = segs(si)
      val u = segment(s, si, t, shared)
      val from = seg.start * w
      val to = seg.end * w + 1
      var c = 0
      while (c <= seg.start) {
        val b = best(from + c)
        if (b >= 0.0 && b + u > best(to + c)) best(to + c) = b + u
        c += 1
      }
      si += 1
    }
    val m = t.minParts
    var out = 0.0
    var c = 1
    while (c <= n) {
      val b = best(n * w + c)
      if (b > 0.0) out = math.max(out, b / math.max(c, m))
      c += 1
    }
    out
  }
}

object UsimBound {

  /** How far below θ a bound must fall to prune: far above the rounding
    * between a bound's sum and the same weights summed by GetSim.
    */
  val Slack = 1e-9
}
