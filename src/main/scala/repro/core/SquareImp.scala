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
  def greedy(g: UsimGraph): mutable.LinkedHashSet[Int] = fill(g, mutable.LinkedHashSet[Int]())

  /** Adds to the independent set `a`, in descending weight, every vertex
    * that conflicts with nothing already in it.
    */
  private def fill(g: UsimGraph, a: mutable.LinkedHashSet[Int]): mutable.LinkedHashSet[Int] = {
    var ms = 0L; var mt = 0L
    for (i <- a) { ms |= g.maskS(i); mt |= g.maskT(i) }
    for (i <- g.byWeight) {
      if ((ms & g.maskS(i)) == 0L && (mt & g.maskT(i)) == 0L) {
        a += i; ms |= g.maskS(i); mt |= g.maskT(i)
      }
    }
    a
  }

  /** Squared-weight local search from the greedy seed. Accepts the first
    * improving claw it finds.
    */
  def solve(g: UsimGraph): Set[Int] = {
    val a = greedy(g)
    val n = g.size
    def sq(i: Int): Double = g.weights(i) * g.weights(i)
    var nb = new Neighbourhoods(g, a)
    var improved = true
    var passes = 0
    val eps = 1e-12
    def accept(adds: Int*): Unit = {
      for (v <- adds) a --= nb.members(v)
      a ++= adds
      nb = new Neighbourhoods(g, a)
      improved = true
    }
    while (improved && passes < MaxPasses) {
      improved = false
      passes += 1
      // single talons
      var v = 0
      while (v < n) {
        if (!a.contains(v) && sq(v) > nb.sq(v) + eps) accept(v)
        v += 1
      }
      // pair talons
      if (n <= PairTalonLimit) {
        var v1 = 0
        while (v1 < n) {
          // Checked once per v1: after a pair move v1 is in A, and its
          // later pairs remove N(v1, A) = {v1} and add it back last.
          if (!a.contains(v1)) {
            var v2 = v1 + 1
            while (v2 < n) {
              if (!a.contains(v2) && !g.conflict(v1, v2)) {
                // N(v1, A), then the rest of N(v2, A), in A's order
                var removed = nb.sq(v1)
                val l2 = nb.members(v2)
                var i2 = 0
                while (i2 < l2.length) {
                  if (!nb.contains(v1, l2(i2))) removed += sq(l2(i2))
                  i2 += 1
                }
                if (sq(v1) + sq(v2) > removed + eps) accept(v1, v2)
              }
              v2 += 1
            }
          }
          v1 += 1
        }
      }
    }
    // Re-maximalise: local moves can open room for unpicked vertices.
    fill(g, a).toSet
  }
}

/** The paper's N(v, A) for every vertex v of `g` against an independent
  * set `a`: the members of `a` that conflict with v, in `a`'s order (for
  * a member of `a`, just itself), with their weight sum, squared-weight
  * sum and S/T token coverage. Both claw searches, SquareImp and
  * Algorithm 1, evaluate their moves from these aggregates.
  */
private[core] final class Neighbourhoods(g: UsimGraph, a: Iterable[Int]) {
  val members = new Array[Array[Int]](g.size)
  val w = new Array[Double](g.size)
  val sq = new Array[Double](g.size)
  val ms = new Array[Long](g.size)
  val mt = new Array[Long](g.size)

  locally {
    val aArr = a.toArray
    val buf = new Array[Int](aArr.length)
    var v = 0
    while (v < g.size) {
      var c = 0
      var j = 0
      while (j < aArr.length) {
        val u = aArr(j)
        if (u == v || g.conflict(u, v)) {
          w(v) += g.weights(u); sq(v) += g.weights(u) * g.weights(u)
          ms(v) |= g.maskS(u); mt(v) |= g.maskT(u)
          buf(c) = u; c += 1
        }
        j += 1
      }
      members(v) = java.util.Arrays.copyOf(buf, c)
      v += 1
    }
  }

  /** Whether member `u` of A lies in N(v, A). Members' spans are
    * disjoint, so u meets N(v, A)'s coverage only if it belongs to it.
    */
  def contains(v: Int, u: Int): Boolean =
    (g.maskS(u) & ms(v)) != 0L || (g.maskT(u) & mt(v)) != 0L
}
