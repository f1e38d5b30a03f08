package repro.tune

import scala.util.Random
import repro.core._
import repro.join._

/** Algorithm 7: suggest the overlap constraint τ minimising the
  * estimated join cost, by Monte-Carlo iterations of the AU-Filter
  * filtering stage over tiny independent Bernoulli samples.
  */
object TauSuggest {

  final case class Result(
      tau: Int,
      iterations: Int,
      /** estimated full-data cost Ĉ_τ per τ, in nanoseconds. */
      costs: Map[Int, Double],
      /** estimated full-data processed pairs T̂_τ (Eq 16). */
      tHat: Map[Int, Double],
      /** estimated full-data candidate count V̂_τ. */
      vHat: Map[Int, Double],
      nanos: Long,
  )

  /** Per-τ estimation state (T̂_τ and V̂_τ streams). */
  private final class TauState {
    val t = new OnlineStats
    val v = new OnlineStats
  }

  /** Suggest τ for a self-join of `strings`.
    *
    * @param universe candidate τ values (the paper's U)
    * @param ps       Bernoulli sampling probability per string
    * @param nStar    burn-in iterations before the stop rule applies
    * @param tStar    Student's t quantile for the confidence interval
    * @param maxIter  hard cap (Figure 8 shows runs of 10²–10³ iterations)
    */
  def suggest(
      k: Knowledge,
      strings: IndexedSeq[String],
      order: Map[String, Int],
      cfg: LocalJoin.Config,
      universe: Seq[Int],
      ps: Double,
      cost: CostModel,
      nStar: Int = 10,
      tStar: Double = 1.036,
      maxIter: Int = 400,
      seed: Long = 7L,
  ): Result = {
    require(universe.nonEmpty, "τ universe must be non-empty")
    val start = System.nanoTime()
    val rng = new Random(seed)
    // A selected signature depends only on (string, τ): select a string's
    // signatures for the whole universe the first time it is sampled and
    // keep those, not its context. Null until the string is sampled.
    val sigCache = new Array[Array[Array[Int]]](strings.length)
    def sigsOf(i: Int): Array[Array[Int]] = {
      if (sigCache(i) == null) {
        val ctx = SignatureContext(PreparedString(k, strings(i)), cfg.measures, cfg.q, order)
        sigCache(i) = universe.iterator.map(tau => ctx.select(cfg.algo, cfg.theta, tau)).toArray
      }
      sigCache(i)
    }

    val state = universe.map(t => t -> new TauState).toMap
    var n = 0
    var lastIterT = 0.0 // Σ_τ T′ of the latest iteration: proxy for the (n+1)-th
    var stop = false
    while (!stop && n < maxIter) {
      n += 1
      val sampled = strings.indices.filter(_ => rng.nextDouble() < ps).map(sigsOf)
      var sumT = 0.0
      for ((tau, u) <- universe.zipWithIndex) {
        val sigs: IndexedSeq[Array[Int]] = sampled.map(_(u))
        val (processed, cands) = LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true)
        val st = state(tau)
        st.t.add(BernoulliEstimator.scale(processed.toDouble, ps, ps))
        st.v.add(BernoulliEstimator.scale(cands.size.toDouble, ps, ps))
        sumT += processed.toDouble
      }
      lastIterT = sumT
      if (n >= nStar) {
        // Ĉ_τ mean/CI by Eqs (22–23); stop by Eq (24).
        val ciBounds = universe.map { tau =>
          val st = state(tau)
          val mean = cost.cost(st.t.mean, st.v.mean)
          val std = math.sqrt(
            cost.cf * cost.cf * st.t.meanVariance + cost.cv * cost.cv * st.v.meanVariance)
          tau -> (mean, mean - tStar * std, mean + tStar * std)
        }.toMap
        val tauMin = universe.minBy(t => ciBounds(t)._1)
        val upperMin = ciBounds(tauMin)._3
        val lowestOtherL = universe.filter(_ != tauMin).map(t => ciBounds(t)._2) match {
          case Nil => Double.PositiveInfinity
          case xs  => xs.min
        }
        val penalty = upperMin - lowestOtherL
        val nextIterCost = cost.cf * lastIterT
        if (penalty < nextIterCost) stop = true
      }
    }
    val costs = universe.map { tau =>
      val st = state(tau)
      tau -> cost.cost(st.t.mean, st.v.mean)
    }.toMap
    Result(universe.minBy(costs), n, costs,
      universe.map(t => t -> state(t).t.mean).toMap,
      universe.map(t => t -> state(t).v.mean).toMap,
      System.nanoTime() - start)
  }
}
