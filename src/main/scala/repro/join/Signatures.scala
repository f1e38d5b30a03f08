package repro.join

import repro.core._

/** Which signature-selection algorithm a join run uses (§3). */
sealed trait SigAlgo { def label: String }
object SigAlgo {
  /** Algorithm 2 — one-overlap prefix filtering. */
  case object UFilter extends SigAlgo { val label = "U-Filter" }
  /** Algorithm 4 — τ overlaps, heuristic TW bound (Ineq. 10). */
  case object AUHeuristic extends SigAlgo { val label = "AU-Filter (heuristics)" }
  /** Algorithm 5 — τ overlaps, dynamic-programming bound. */
  case object AUDp extends SigAlgo { val label = "AU-Filter (DP)" }
  val all: Seq[SigAlgo] = Seq(UFilter, AUHeuristic, AUDp)
}

/** Per-string signature-selection state: the sorted pebble list B, the
  * partition lower bound m, the accumulated-similarity array AS(i, S)
  * (Def 4), and the three selection algorithms. Positions are 1-based
  * as in the paper.
  */
final class SignatureContext(
    val tokens: Vector[String],
    k: Knowledge,
    measures: MeasureSet,
    q: Int,
    order: Map[String, Int],
) {
  val segments: Vector[Segment] = Segments.wellDefined(k, tokens)

  /** B: all pebbles sorted by the global order (Line 1 of Algs 2/4/5). */
  val pebbles: Vector[PebbleInstance] =
    Pebbles.sorted(Pebbles.generate(k, segments, measures, q), order)

  val n: Int = pebbles.length

  /** m = GetMinPartitionSize(S). */
  val m: Int = MinPartition.size(segments, tokens.length)

  // ------------------------------------------------------------------ AS

  /** asArr(i) = AS(i, S) = Σ_P max_f W(B_{P,f}[i, n]), 1-based; index
    * n+1 holds 0 (nothing removed).
    */
  private val asArr: Array[Double] = {
    val arr = new Array[Double](n + 2)
    val groupSum = scala.collection.mutable.HashMap[(Int, Char), Double]()
    val segMax = scala.collection.mutable.HashMap[Int, Double]()
    var acc = 0.0
    var i = n
    while (i >= 1) {
      val p = pebbles(i - 1)
      val g = (p.segIdx, p.measure)
      val s = groupSum.getOrElse(g, 0.0) + p.weight
      groupSum(g) = s
      val prevMax = segMax.getOrElse(p.segIdx, 0.0)
      if (s > prevMax) { acc += s - prevMax; segMax(p.segIdx) = s }
      arr(i) = acc
      i -= 1
    }
    arr
  }

  /** AS(i, S) for i ∈ [1, n+1]. */
  def as(i: Int): Double = asArr(i)

  // ----------------------------------------------- per-group DP helpers

  /** positions (1-based, ascending) and weights per (segment, measure). */
  private val groups: Map[(Int, Char), (Array[Int], Array[Double])] =
    pebbles.zipWithIndex
      .groupBy { case (p, _) => (p.segIdx, p.measure) }
      .view
      .mapValues { xs =>
        (xs.map(_._2 + 1).toArray, xs.map(_._1.weight).toArray)
      }
      .toMap

  private val measuresOfSeg: Map[Int, Seq[Char]] =
    groups.keys.toSeq.groupBy(_._1).view.mapValues(_.map(_._2)).toMap

  /** W(B_{P,f}[i, n]): group weight mass at positions ≥ i. */
  private def groupSuffix(g: (Int, Char), i: Int): Double = {
    val (pos, w) = groups(g)
    var s = 0.0
    var idx = pos.length - 1
    while (idx >= 0 && pos(idx) >= i) { s += w(idx); idx -= 1 }
    s
  }

  /** TW_c(B_{P,f}[1, i−1]): top-c weights of the group before position i. */
  private def groupPrefixTop(g: (Int, Char), i: Int, c: Int): Double = {
    if (c <= 0) return 0.0
    val (pos, w) = groups(g)
    val inPrefix = (0 until pos.length).iterator.takeWhile(pos(_) < i).map(w).toArray
    java.util.Arrays.sort(inPrefix)
    var s = 0.0
    var idx = inPrefix.length - 1
    val stop = math.max(0, inPrefix.length - c)
    while (idx >= stop) { s += inPrefix(idx); idx -= 1 }
    s
  }

  // ----------------------------------------------------------- Algorithm 2

  /** Float slack: 7×(1/7) < 1.0 in doubles must still count as reaching
    * the bound, else θ=1 signatures collapse to empty (unsound).
    */
  private val Eps = 1e-9

  /** U-Filter: signature length = largest i with AS(i) ≥ mθ (Lemma 1). */
  def uFilter(theta: Double): Int = {
    val bound = m * theta - Eps
    var i = n
    while (i >= 1 && bound > asArr(i)) i -= 1
    i
  }

  // ----------------------------------------------------------- Algorithm 4

  /** AU-Filter heuristic: largest i with AS(i) + TW_{τ−1}(B[1,i−1]) ≥ mθ
    * (Inequality 10). topPrefix(p) = TW_{τ−1} over the first p pebbles,
    * streamed with a size-(τ−1) min-heap.
    */
  def auHeuristic(theta: Double, tau: Int): Int = {
    require(tau >= 1, s"tau must be >= 1, got $tau")
    if (tau == 1) return uFilter(theta)
    val bound = m * theta - Eps
    val kTop = tau - 1
    val topSum = new Array[Double](n + 1) // topSum(p) over first p pebbles
    val heap = new java.util.PriorityQueue[java.lang.Double](kTop + 1)
    var running = 0.0
    var p = 1
    while (p <= n) {
      val w = pebbles(p - 1).weight
      heap.add(w); running += w
      if (heap.size > kTop) running -= heap.poll()
      topSum(p) = running
      p += 1
    }
    var i = n
    while (i >= 1 && bound > asArr(i) + topSum(i - 1)) i -= 1
    i
  }

  // ----------------------------------------------------------- Algorithm 5

  /** AU-Filter DP: largest i whose DP bound W_i[t, τ−1] certifies
    * AS(i) + W_i[t, τ−1] ≥ mθ; early-terminates on any reaching cell
    * (W_i is monotone in both coordinates).
    */
  def auDp(theta: Double, tau: Int): Int = {
    require(tau >= 1, s"tau must be >= 1, got $tau")
    if (tau == 1) return uFilter(theta)
    val bound = m * theta - Eps
    var i = n
    while (i >= 1) {
      if (asArr(i) >= bound) return i // d = 0 cell already suffices
      if (dpReaches(i, tau, bound)) return i
      i -= 1
    }
    0
  }

  /** Populates W_i/V_i per Eqs (12-14); true iff some cell reaches. */
  private def dpReaches(i: Int, tau: Int, bound: Double): Boolean = {
    val t = segments.length
    val cols = tau // d, c ∈ [0, τ−1]
    val prev = new Array[Double](cols)
    val cur = new Array[Double](cols)
    val v = new Array[Double](cols)
    var p = 1
    while (p <= t) {
      val segId = p - 1
      // V_i[p, c] = R(P,i,c) − R(P,i,0), Eq (13–14)
      val ms = measuresOfSeg.getOrElse(segId, Nil)
      var c = 0
      while (c < cols) {
        var r = 0.0
        for (f <- ms) {
          val g = (segId, f)
          val x = groupSuffix(g, i) + groupPrefixTop(g, i, c)
          if (x > r) r = x
        }
        v(c) = r
        c += 1
      }
      val r0 = v(0)
      c = 0
      while (c < cols) { v(c) -= r0; c += 1 }
      // W_i[p, d] = max_c W_i[p−1, d−c] + V_i[p, c], Eq (12)
      cur(0) = 0.0
      var d = 1
      while (d < cols) {
        var best = 0.0
        c = 0
        while (c <= d) {
          val x = prev(d - c) + v(c)
          if (x > best) best = x
          c += 1
        }
        cur(d) = best
        if (asArr(i) + best >= bound) return true // Lines 13-14
        d += 1
      }
      System.arraycopy(cur, 0, prev, 0, cols)
      p += 1
    }
    false
  }

  // ------------------------------------------------------------ signature

  /** Distinct keys of the first `len` pebbles — what inverted lists index. */
  def signature(len: Int): Set[String] =
    pebbles.iterator.take(len).map(_.key).toSet

  /** Select the signature with the given algorithm. */
  def select(algo: SigAlgo, theta: Double, tau: Int): Set[String] = {
    val len = algo match {
      case SigAlgo.UFilter     => uFilter(theta)
      case SigAlgo.AUHeuristic => auHeuristic(theta, tau)
      case SigAlgo.AUDp        => auDp(theta, tau)
    }
    signature(len)
  }
}

object SignatureContext {
  def apply(
      k: Knowledge,
      s: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
      order: Map[String, Int] = Map.empty,
  ): SignatureContext =
    new SignatureContext(Tokenizer.tokens(s), k, measures, q, order)
}
