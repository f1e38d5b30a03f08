package repro.core

import scala.collection.mutable

/** Berman's SquareImp [10]: weighted maximum independent set on
  * claw-free graphs via squared-weight local improvements.
  *
  * Full SquareImp searches claws with arbitrarily many talons
  * (exponential in the claw bound d). We seed with a maximal IS chosen
  * greedily by weight and improve with talon sets of size 1 and 2 on
  * squared weights — the moves that drive Berman's d/2 analysis — with
  * a pass cap (`MaxPasses`) for termination. Pair talons are skipped on
  * graphs past `PairTalonLimit` vertices to keep per-pair verification
  * cheap (see DESIGN.md §4).
  */
object SquareImp {

  val PairTalonLimit = 60
  val MaxPasses = 100

  /** Greedy maximal independent set by descending weight. */
  def greedy(g: UsimGraph): mutable.LinkedHashSet[Int] = {
    val order = g.weights.indices.sortBy(i => (-g.weights(i), i))
    val sel = mutable.LinkedHashSet[Int]()
    var ms = 0L; var mt = 0L
    for (i <- order) {
      if ((ms & g.maskS(i)) == 0L && (mt & g.maskT(i)) == 0L) {
        sel += i; ms |= g.maskS(i); mt |= g.maskT(i)
      }
    }
    sel
  }

  /** Squared-weight local search from the greedy seed. */
  def solve(g: UsimGraph): Set[Int] = {
    val a = greedy(g)
    val n = g.size
    def sq(i: Int): Double = g.weights(i) * g.weights(i)
    var improved = true
    var passes = 0
    val eps = 1e-12
    while (improved && passes < MaxPasses) {
      improved = false
      passes += 1
      // single talons
      var v = 0
      while (v < n) {
        if (!a.contains(v)) {
          val removed = g.neighboursIn(v, a)
          if (sq(v) > removed.iterator.map(sq).sum + eps) {
            a --= removed; a += v
            improved = true
          }
        }
        v += 1
      }
      // pair talons
      if (n <= PairTalonLimit) {
        var v1 = 0
        while (v1 < n) {
          if (!a.contains(v1)) {
            var v2 = v1 + 1
            while (v2 < n) {
              if (!a.contains(v2) && !g.conflict(v1, v2)) {
                val removed = (g.neighboursIn(v1, a) ++ g.neighboursIn(v2, a)).distinct
                if (sq(v1) + sq(v2) > removed.iterator.map(sq).sum + eps) {
                  a --= removed; a += v1; a += v2
                  improved = true
                }
              }
              v2 += 1
            }
          }
          v1 += 1
        }
      }
    }
    // Re-maximalise: local moves can open room for unpicked vertices.
    var ms = 0L; var mt = 0L
    for (i <- a) { ms |= g.maskS(i); mt |= g.maskT(i) }
    val order = g.weights.indices.sortBy(i => (-g.weights(i), i))
    for (i <- order) {
      if (!a.contains(i) && (ms & g.maskS(i)) == 0L && (mt & g.maskT(i)) == 0L) {
        a += i; ms |= g.maskS(i); mt |= g.maskT(i)
      }
    }
    a.toSet
  }
}
