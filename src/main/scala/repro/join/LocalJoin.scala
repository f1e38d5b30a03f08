package repro.join

import repro.core._

/** Counters of one join run. `processedPairs` is the paper's T_τ
  * (Eq 16) and `candidates` its V_τ; `pruned` candidates were dropped by
  * the pair bound (`UsimBound`) without building their conflict graph.
  */
final case class JoinStats(
    processedPairs: Long,
    candidates: Long,
    pruned: Long,
    results: Long,
    avgSignatureLen: Double,
)

/** Single-node reference implementation of the unified set joins
  * (Algorithms 3 and 6). It is the ground truth the Spark join is
  * tested against, and the engine the sampling-based τ estimator runs
  * on (Algorithm 7 runs the *filtering stage* over tiny samples).
  */
object LocalJoin {

  final case class Config(
      theta: Double,
      tau: Int = 1,
      algo: SigAlgo = SigAlgo.UFilter,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
      tParam: Int = Usim.DefaultT,
  )

  /** The lowest similarity a join reports at threshold θ: θ less a
    * slack for floating-point rounding in USIM.
    */
  def minSim(theta: Double): Double = theta - 1e-12

  /** Per-collection global frequency order, shared by both sides as the
    * paper requires a single global order.
    */
  def buildOrder(
      k: Knowledge,
      strings: Iterable[String],
      measures: MeasureSet,
      q: Int,
  ): Map[String, Int] =
    orderOf(strings.iterator.map(PreparedString(k, _)), measures, q)

  /** The order of prepared strings: each one's pebble keys counted once. */
  private def orderOf(strings: Iterator[PreparedString], measures: MeasureSet, q: Int): Map[String, Int] =
    Pebbles.keyOrder(strings.map(Pebbles.generate(_, measures, q).iterator.map(_.key)))

  /** One string's signature under `order` and `cfg`. */
  def signature(k: Knowledge, s: String, order: Map[String, Int], cfg: Config): Array[Int] =
    signature(PreparedString(k, s), order, cfg)

  private def signature(p: PreparedString, order: Map[String, Int], cfg: Config): Array[Int] =
    SignatureContext(p, cfg.measures, cfg.q, order).select(cfg.algo, cfg.theta, cfg.tau)

  def signatures(
      k: Knowledge,
      strings: IndexedSeq[String],
      order: Map[String, Int],
      cfg: Config,
  ): IndexedSeq[Array[Int]] =
    strings.map(signature(k, _, order, cfg))

  /** Filtering stage only (Lines 1-8 of Algorithm 6): returns
    * (T_τ processed pairs, candidate pair list sorted by (i, j)). Used
    * by the full join, the τ estimator, the cost calibration and the
    * baselines; `SparkJoin` runs the same [[Index]] and probe, split
    * over tasks.
    */
  def filterStage(
      sigS: IndexedSeq[Array[Int]],
      sigT: IndexedSeq[Array[Int]],
      tau: Int,
      selfJoin: Boolean,
  ): (Long, Vector[(Int, Int)]) = {
    val out = Vector.newBuilder[(Int, Int)]
    val processed = index(if (selfJoin) sigS else sigT).probe(sigS, sigS.indices, tau, selfJoin) {
      (i, j, _) => out += ((i, j))
    }
    (processed, out.result())
  }

  /** Receives a candidate pair (i, j) and the number of signature keys
    * the two strings share.
    */
  trait Candidate {
    def apply(i: Int, j: Int, overlap: Int): Unit
  }

  /** The inverted lists over a collection of signatures (sorted,
    * distinct rank arrays), as arrays indexed by rank: the list of rank
    * r is `ids(start(r) until start(r + 1))`, the positions of the
    * signatures holding r, ascending.
    */
  final class Index private[LocalJoin] (start: Array[Int], ids: Array[Int], size: Int) extends Serializable {

    /** Lines 1-8 of Algorithm 6 for the S strings at `positions`: each
      * walks its keys' lists, in a self-join only the entries above its
      * position, counting shared keys per indexed string, and passes
      * each pair sharing at least τ keys to `emit`, in (i, j) order for
      * ascending `positions`. Returns T_τ, the number of entries walked:
      * over all of S, Σ C(|L|, 2) for a self-join and Σ |Ls|·|Lt|
      * otherwise. In a self-join, `sigS` must be the indexed signatures.
      */
    def probe(sigS: IndexedSeq[Array[Int]], positions: Range, tau: Int, selfJoin: Boolean)(
        emit: Candidate): Long = {
      val start = this.start // locals for the loop
      val ids = this.ids
      val maxRank = start.length - 2
      val count = new Array[Int](size)
      val touched = new Array[Int](size)
      var processed = 0L
      var y = 0
      while (y < positions.length) {
        val i = positions(y)
        val sig = sigS(i)
        var nTouched = 0
        var x = 0
        while (x < sig.length) {
          val r = sig(x)
          if (r <= maxRank) {
            val lo = start(r)
            var p = start(r + 1) - 1
            while (p >= lo && (!selfJoin || ids(p) > i)) {
              val j = ids(p)
              if (count(j) == 0) { touched(nTouched) = j; nTouched += 1 }
              count(j) += 1
              p -= 1
            }
            processed += start(r + 1) - 1 - p
          }
          x += 1
        }
        java.util.Arrays.sort(touched, 0, nTouched)
        var t = 0
        while (t < nTouched) {
          val j = touched(t)
          if (count(j) >= tau) emit(i, j, count(j))
          count(j) = 0
          t += 1
        }
        y += 1
      }
      processed
    }
  }

  /** The [[Index]] over `sigs`. */
  def index(sigs: IndexedSeq[Array[Int]]): Index = {
    var maxRank = -1
    for (sig <- sigs; r <- sig) if (r > maxRank) maxRank = r
    val start = new Array[Int](maxRank + 2)
    for (sig <- sigs; r <- sig) start(r + 1) += 1
    for (r <- 1 until start.length) start(r) += start(r - 1)
    val ids = new Array[Int](start(start.length - 1))
    val fill = java.util.Arrays.copyOf(start, start.length)
    for (j <- sigs.indices; r <- sigs(j)) { ids(fill(r)) = j; fill(r) += 1 }
    new Index(start, ids, sigs.length)
  }

  /** Full filter-and-verification join. For a self-join pass the same
    * collection twice with `selfJoin = true` (pairs reported with
    * sId < tId). Each string is prepared once, and its order keys (when
    * no order is given), signature and side all read that preparation.
    */
  def join(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      cfg: Config,
      selfJoin: Boolean = false,
      precomputedOrder: Option[Map[String, Int]] = None,
  ): (Vector[(Int, Int, Double)], JoinStats) = {
    val prepS = left.map(PreparedString(k, _))
    val prepT = if (selfJoin) prepS else right.map(PreparedString(k, _))
    val order = precomputedOrder.getOrElse(
      orderOf((if (selfJoin) prepS else prepS ++ prepT).iterator, cfg.measures, cfg.q))

    val sigS = prepS.map(signature(_, order, cfg))
    val sigT = if (selfJoin) sigS else prepT.map(signature(_, order, cfg))
    val (processed, cands) = filterStage(sigS, sigT, cfg.tau, selfJoin)
    val (out, pruned) = verify(k, prepS, prepT, identity[PreparedString], cands.iterator, cfg, selfJoin,
      bounded = true)
    val avgSig = if (sigS.isEmpty && sigT.isEmpty) 0.0
                 else (sigS.iterator.map(_.size).sum + sigT.iterator.map(_.size).sum).toDouble /
                      (sigS.length + sigT.length)
    (out, JoinStats(processed, cands.length, pruned, out.length, avgSig))
  }

  /** Verification stage (Lines 9-11 of Algorithm 6): the approximate
    * USIM of each pair, kept when it reaches θ. Each string is prepared,
    * and its side built, once, on first use, and serves every pair it is
    * in. A pair whose `UsimBound` is below θ is dropped before its
    * conflict graph is built.
    */
  def verifyStage(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      pairs: Iterator[(Int, Int)],
      cfg: Config,
      selfJoin: Boolean,
  ): Vector[(Int, Int, Double)] =
    verify(k, left, right, PreparedString(k, _: String), pairs, cfg, selfJoin, bounded = true)._1

  /** `verifyStage` over strings that `prepare` turns into prepared
    * strings, with the pair bound or without it; also returns how many
    * pairs the bound pruned. The bound prunes only below θ less
    * `UsimBound.Slack`, so it never drops a pair that verification
    * reports.
    */
  private def verify[A](
      k: Knowledge,
      left: IndexedSeq[A],
      right: IndexedSeq[A],
      prepare: A => PreparedString,
      pairs: Iterator[(Int, Int)],
      cfg: Config,
      selfJoin: Boolean,
      bounded: Boolean,
  ): (Vector[(Int, Int, Double)], Long) = {
    val grams = new UsimGraph.GramTable
    def sides(strings: IndexedSeq[A]): Int => UsimGraph.Side = {
      val memo = new Array[UsimGraph.Side](strings.length)
      i => {
        if (memo(i) == null) memo(i) = UsimGraph.side(prepare(strings(i)), cfg.q, grams)
        memo(i)
      }
    }
    val sideS = sides(left)
    val sideT = if (selfJoin) sideS else sides(right)
    val bound = new UsimBound(k, cfg.measures)
    val cut = minSim(cfg.theta)
    val prune = cut - UsimBound.Slack
    var pruned = 0L
    val out = Vector.newBuilder[(Int, Int, Double)]
    for ((i, j) <- pairs) {
      if (bounded && bound(sideS(i), sideT(j), prune) < prune) pruned += 1
      else {
        val sim = Usim.approxOnGraph(UsimGraph.build(k, sideS(i), sideT(j), cfg.measures), cfg.tParam)._1
        if (sim >= cut) out += ((i, j, sim))
      }
    }
    (out.result(), pruned)
  }

  /** Brute-force verify-all join — the oracle the filtered joins are
    * compared against in tests (no filtering, exact candidate set).
    */
  def bruteForce(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      cfg: Config,
      selfJoin: Boolean = false,
  ): Vector[(Int, Int, Double)] = {
    val pairs = for (i <- left.indices.iterator; j <- right.indices.iterator if !selfJoin || i < j)
      yield (i, j)
    verify(k, left, right, PreparedString(k, _: String), pairs, cfg, selfJoin, bounded = false)._1
  }
}
