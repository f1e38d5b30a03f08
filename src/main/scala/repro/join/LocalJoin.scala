package repro.join

import repro.core._

/** Counters of one join run. `processedPairs` is the paper's T_τ
  * (Eq 16) and `candidates` its V_τ.
  */
final case class JoinStats(
    processedPairs: Long,
    candidates: Long,
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
    Pebbles.frequencyOrder(strings.iterator.map { s =>
      val toks = Tokenizer.tokens(s)
      Pebbles.generate(k, Segments.wellDefined(k, toks), measures, q)
    })

  def signatures(
      k: Knowledge,
      strings: IndexedSeq[String],
      order: Map[String, Int],
      cfg: Config,
  ): IndexedSeq[Set[String]] =
    strings.map { s =>
      new SignatureContext(Tokenizer.tokens(s), k, cfg.measures, cfg.q, order)
        .select(cfg.algo, cfg.theta, cfg.tau)
    }

  /** Filtering stage only (Lines 1-8 of Algorithm 6): returns
    * (T_τ processed pairs, candidate pair list). Used by both the full
    * join and the τ estimator.
    */
  def filterStage(
      sigS: IndexedSeq[Set[String]],
      sigT: IndexedSeq[Set[String]],
      tau: Int,
      selfJoin: Boolean,
  ): (Long, Vector[(Int, Int)]) = {
    val invS = invert(sigS)
    val invT = if (selfJoin) invS else invert(sigT)
    var processed = 0L
    for ((key, ls) <- invS; lt <- invT.get(key))
      processed += (if (selfJoin) ls.length.toLong * (ls.length - 1) / 2
                    else ls.length.toLong * lt.length)
    // T_τ bounds the number of distinct pairs; large joins start at 2^16.
    val counts = new scala.collection.mutable.LongMap[Int](math.min(processed, 1L << 16).toInt)
    for ((key, ls) <- invS; lt <- invT.get(key)) {
      var i = 0
      while (i < ls.length) {
        val hi = ls(i).toLong << 32
        var j = if (selfJoin) i + 1 else 0
        while (j < lt.length) {
          val code = hi | lt(j).toLong
          counts(code) = counts.getOrElse(code, 0) + 1
          j += 1
        }
        i += 1
      }
    }
    val cands = counts.iterator.collect {
      case (code, c) if c >= tau => ((code >> 32).toInt, code.toInt)
    }.toVector.sorted
    (processed, cands)
  }

  private def invert(sigs: IndexedSeq[Set[String]]): Map[String, Vector[Int]] = {
    val m = scala.collection.mutable.HashMap[String, scala.collection.mutable.ArrayBuffer[Int]]()
    var i = 0
    while (i < sigs.length) {
      for (key <- sigs(i)) m.getOrElseUpdate(key, scala.collection.mutable.ArrayBuffer()) += i
      i += 1
    }
    m.view.mapValues(_.toVector).toMap
  }

  /** Full filter-and-verification join. For a self-join pass the same
    * collection twice with `selfJoin = true` (pairs reported with
    * sId < tId).
    */
  def join(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      cfg: Config,
      selfJoin: Boolean = false,
      precomputedOrder: Option[Map[String, Int]] = None,
  ): (Vector[(Int, Int, Double)], JoinStats) = {
    val order = precomputedOrder.getOrElse(
      buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q))

    val sigS = signatures(k, left, order, cfg)
    val sigT = if (selfJoin) sigS else signatures(k, right, order, cfg)
    val (processed, cands) = filterStage(sigS, sigT, cfg.tau, selfJoin)
    val out = verifyStage(k, left, right, cands.iterator, cfg, selfJoin)
    val avgSig = if (left.isEmpty) 0.0
                 else (sigS.iterator.map(_.size).sum + sigT.iterator.map(_.size).sum).toDouble /
                      (sigS.length + sigT.length)
    (out, JoinStats(processed, cands.length, out.length, avgSig))
  }

  /** Verification stage (Lines 9-11 of Algorithm 6): the approximate
    * (or, with `useExact`, exact) USIM of each pair, kept when it reaches
    * θ. Each string's side is prepared once, on first use, and serves
    * every pair it is in.
    */
  def verifyStage(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      pairs: Iterator[(Int, Int)],
      cfg: Config,
      selfJoin: Boolean,
      useExact: Boolean = false,
  ): Vector[(Int, Int, Double)] = {
    val grams = new UsimGraph.GramTable
    def sides(strings: IndexedSeq[String]): Int => UsimGraph.Side = {
      val memo = new Array[UsimGraph.Side](strings.length)
      i => {
        if (memo(i) == null) memo(i) = UsimGraph.side(k, Tokenizer.tokens(strings(i)), cfg.q, grams)
        memo(i)
      }
    }
    val sideS = sides(left)
    val sideT = if (selfJoin) sideS else sides(right)
    val out = Vector.newBuilder[(Int, Int, Double)]
    for ((i, j) <- pairs) {
      val g = UsimGraph.build(k, sideS(i), sideT(j), cfg.measures)
      val sim = if (useExact) Usim.exactOnGraph(g) else Usim.approxOnGraph(g, cfg.tParam)._1
      if (sim >= minSim(cfg.theta)) out += ((i, j, sim))
    }
    out.result()
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
      useExact: Boolean = false,
  ): Vector[(Int, Int, Double)] = {
    val pairs = for (i <- left.indices.iterator; j <- right.indices.iterator if !selfJoin || i < j)
      yield (i, j)
    verifyStage(k, left, right, pairs, cfg, selfJoin, useExact)
  }
}
