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
  *
  * Built from a prepared string, its pebbles as `Pebbles.generate` emits
  * them from that string, and the global `order`. Pebbles are keyed by
  * their rank in the order (`Pebbles.ranksOf`), so signatures are rank
  * arrays. Ranks of two contexts are comparable only when the order
  * covers both strings' keys, as `LocalJoin.buildOrder` (which
  * `SparkJoin` calls too) covers the collection it counts.
  */
final class SignatureContext(
    val prepared: PreparedString,
    generated: IndexedSeq[PebbleInstance],
    order: Map[String, Int],
) {
  val segments: IndexedSeq[Segment] = prepared.segments

  /** B: all pebbles sorted by the global order (Line 1 of Algs 2/4/5),
    * and `ranks(p)` the rank of pebble p's key. `Pebbles.generate` emits
    * pebbles by segment, then measure J < S < T, so sorting by (rank,
    * generation index) breaks ties by (segment, measure).
    */
  val (pebbles: Vector[PebbleInstance], ranks: Array[Int]) = {
    val r = Pebbles.ranksOf(generated.map(_.key), order)
    val codes = Array.tabulate(generated.length)(p => r(p).toLong << 32 | p)
    java.util.Arrays.sort(codes)
    (codes.iterator.map(c => generated(c.toInt)).toVector, codes.map(c => (c >>> 32).toInt))
  }

  val n: Int = pebbles.length

  /** m = GetMinPartitionSize(S). */
  val m: Int = MinPartition.size(segments, prepared.tokens.length)

  // -------------------------------------------------------------- groups

  /** Group of each pebble of B (0-based): one group per (segment,
    * measure), numbered in order of first appearance.
    */
  private val groupOf: Array[Int] = {
    val ids = Array.fill(segments.length * 3)(-1) // (segment, measure) at seg·3 + "JST" index
    var next = 0
    pebbles.iterator.map { p =>
      val slot = p.segIdx * 3 + "JST".indexOf(p.measure)
      if (ids(slot) < 0) { ids(slot) = next; next += 1 }
      ids(slot)
    }.toArray
  }

  private val nGroups: Int = if (n == 0) 0 else groupOf.max + 1

  /** Weights of each group's pebbles, in position order. */
  private lazy val groupW: Array[Array[Double]] = {
    val b = Array.fill(nGroups)(Array.newBuilder[Double])
    for (p <- 0 until n) b(groupOf(p)) += pebbles(p).weight
    b.map(_.result())
  }

  /** The groups of each segment. */
  private lazy val segGroups: Array[Array[Int]] = {
    val b = Array.fill(segments.length)(Array.newBuilder[Int])
    val seen = new Array[Boolean](nGroups)
    for (p <- 0 until n if !seen(groupOf(p))) {
      seen(groupOf(p)) = true
      b(pebbles(p).segIdx) += groupOf(p)
    }
    b.map(_.result())
  }

  // ------------------------------------------------------------------ AS

  /** asArr(i) = AS(i, S) = Σ_P max_f W(B_{P,f}[i, n]), 1-based; index
    * n+1 holds 0 (nothing removed).
    */
  private val asArr: Array[Double] = {
    val arr = new Array[Double](n + 2)
    val groupSum = new Array[Double](nGroups)
    val segMax = new Array[Double](segments.length)
    var acc = 0.0
    var i = n
    while (i >= 1) {
      val p = pebbles(i - 1)
      val g = groupOf(i - 1)
      val s = groupSum(g) + p.weight
      groupSum(g) = s
      val prevMax = segMax(p.segIdx)
      if (s > prevMax) { acc += s - prevMax; segMax(p.segIdx) = s }
      arr(i) = acc
      i -= 1
    }
    arr
  }

  /** AS(i, S) for i ∈ [1, n+1]. */
  def as(i: Int): Double = asArr(i)

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
    *
    * From boundary i+1 to i one pebble moves from the prefix B[1, i−1]
    * to the suffix B[i, n], so only its segment's row V_i[p, ·] changes
    * (Eqs 13–14). Each row is refreshed from per-group tables of
    * R(P,f,k,c) = W(suffix) + TW_c(prefix) for a group with k pebbles in
    * the prefix; the W_i recurrence (Eq 12) is then rerun over the rows.
    * A boundary costs O(|F|·τ) for the row plus O(t·τ²) for Eq (12),
    * where |F| ≤ 3 is the number of measures.
    */
  def auDp(theta: Double, tau: Int): Int = {
    require(tau >= 1, s"tau must be >= 1, got $tau")
    if (tau == 1) return uFilter(theta)
    val bound = m * theta - Eps
    val cols = tau // d, c ∈ [0, τ−1]
    val t = segments.length

    // r(base(g) + k·cols + c): suffix mass summed from the end, plus the
    // top-c prefix weights summed largest first — the order a direct
    // per-boundary evaluation of Eqs (13–14) adds them in, so the result
    // matches it bit for bit.
    val base = new Array[Int](nGroups + 1)
    for (g <- 0 until nGroups) base(g + 1) = base(g) + (groupW(g).length + 1) * cols
    val r = new Array[Double](base(nGroups))
    val top = new Array[Double](cols - 1) // prefix's largest weights, descending
    for (g <- 0 until nGroups) {
      val w = groupW(g)
      val suf = new Array[Double](w.length + 1)
      var k = w.length
      while (k > 0) { k -= 1; suf(k) = suf(k + 1) + w(k) }
      var size = 0
      k = 0
      while (k <= w.length) {
        val row = base(g) + k * cols
        var tw = 0.0
        var c = 0
        while (c < cols) {
          if (c > 0 && c <= size) tw += top(c - 1)
          r(row + c) = suf(k) + tw
          c += 1
        }
        if (k < w.length && (size < top.length || w(k) > top(size - 1))) {
          if (size < top.length) size += 1
          var j = size - 1
          while (j > 0 && top(j - 1) < w(k)) { top(j) = top(j - 1); j -= 1 }
          top(j) = w(k)
        }
        k += 1
      }
    }

    val inPrefix = groupW.map(_.length) // every pebble before boundary n+1
    val v = new Array[Double](t * cols) // V_i[p, c] at v(p·cols + c)
    def refresh(seg: Int): Unit = {
      val off = seg * cols
      val gs = segGroups(seg)
      var c = 0
      while (c < cols) {
        var best = 0.0
        var j = 0
        while (j < gs.length) {
          val x = r(base(gs(j)) + inPrefix(gs(j)) * cols + c)
          if (x > best) best = x
          j += 1
        }
        v(off + c) = best
        c += 1
      }
      val r0 = v(off)
      c = 0
      while (c < cols) { v(off + c) -= r0; c += 1 }
    }
    for (seg <- 0 until t) refresh(seg)

    val prev = new Array[Double](cols)
    val cur = new Array[Double](cols)
    // W_i[p, d] = max_c W_i[p−1, d−c] + V_i[p, c], Eq (12); Lines 13-14
    def reaches(asI: Double): Boolean = {
      java.util.Arrays.fill(prev, 0.0)
      var p = 0
      while (p < t) {
        val off = p * cols
        cur(0) = 0.0
        var d = 1
        while (d < cols) {
          var best = 0.0
          var c = 0
          while (c <= d) {
            val x = prev(d - c) + v(off + c)
            if (x > best) best = x
            c += 1
          }
          cur(d) = best
          if (asI + best >= bound) return true
          d += 1
        }
        System.arraycopy(cur, 0, prev, 0, cols)
        p += 1
      }
      false
    }

    var i = n
    while (i >= 1) {
      inPrefix(groupOf(i - 1)) -= 1
      if (asArr(i) >= bound) return i // d = 0 cell already suffices
      refresh(pebbles(i - 1).segIdx)
      if (reaches(asArr(i))) return i
      i -= 1
    }
    0
  }

  // ------------------------------------------------------------ signature

  /** Distinct ranks of the first `len` pebbles, ascending — what
    * inverted lists index.
    */
  def signature(len: Int): Array[Int] = {
    val out = Array.newBuilder[Int]
    var p = 0
    while (p < len) {
      if (p == 0 || ranks(p) != ranks(p - 1)) out += ranks(p)
      p += 1
    }
    out.result()
  }

  /** Select the signature with the given algorithm. */
  def select(algo: SigAlgo, theta: Double, tau: Int): Array[Int] = {
    val len = algo match {
      case SigAlgo.UFilter     => uFilter(theta)
      case SigAlgo.AUHeuristic => auHeuristic(theta, tau)
      case SigAlgo.AUDp        => auDp(theta, tau)
    }
    signature(len)
  }
}

object SignatureContext {

  /** The context of `p` with its pebbles under `measures` and `q`. */
  def apply(p: PreparedString, measures: MeasureSet, q: Int, order: Map[String, Int]): SignatureContext =
    new SignatureContext(p, Pebbles.generate(p, measures, q), order)
}
