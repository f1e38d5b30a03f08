package repro.tune

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen
import repro.join._

class TauSuggestSpec extends AnyFunSuite {
  val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  val k: Knowledge = gctx.knowledge
  val ds: TextGen.JoinDataset = TextGen.joinDataset(gctx, n = 800, seed = 21L)
  val cfg: LocalJoin.Config = LocalJoin.Config(0.8, 1, SigAlgo.AUHeuristic)
  lazy val order: Map[String, Int] = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)

  test("suggest returns a τ from the universe") {
    val r = TauSuggest.suggest(k, ds.strings, order, cfg, universe = Seq(1, 2, 3, 4),
      ps = 0.1, cost = CostModel.Default, nStar = 5, maxIter = 40)
    assert(Seq(1, 2, 3, 4).contains(r.tau))
    assert(r.iterations >= 5 && r.iterations <= 40)
    assert(r.costs.size == 4 && r.costs.values.forall(_ >= 0))
  }

  test("suggest runs at least nStar iterations (burn-in)") {
    val r = TauSuggest.suggest(k, ds.strings, order, cfg, universe = Seq(1, 2),
      ps = 0.15, cost = CostModel.Default, nStar = 12, maxIter = 50)
    assert(r.iterations >= 12)
  }

  test("suggestion is deterministic in the seed") {
    def run(seed: Long) = TauSuggest.suggest(k, ds.strings, order, cfg,
      universe = Seq(1, 2, 3), ps = 0.1, cost = CostModel.Default,
      nStar = 5, maxIter = 25, seed = seed)
    assert(run(3L).tau == run(3L).tau)
    assert(run(3L).costs == run(3L).costs)
  }

  test("estimates follow the Figure 3a trade-off: T̂ grows with τ") {
    // Signature prefixes grow with τ (SignaturesSpec), so inverted lists
    // are pointwise supersets and the processed-pair count is monotone.
    // V̂ need not be monotone (longer signatures can create new shared
    // keys), so only its sanity is asserted.
    val r = TauSuggest.suggest(k, ds.strings, order, cfg, universe = Seq(1, 4),
      ps = 0.15, cost = CostModel.Default, nStar = 8, maxIter = 40)
    assert(r.tHat(4) >= r.tHat(1) - 1e-9)
    assert(r.vHat.values.forall(_ >= 0))
  }

  test("filter-heavy cost model favours small τ") {
    val heavyFilter = CostModel(cf = 1e6, cv = 1.0)
    val r = TauSuggest.suggest(k, ds.strings, order, cfg, universe = Seq(1, 4),
      ps = 0.15, cost = heavyFilter, nStar = 8, maxIter = 40)
    assert(r.tau == 1)
  }

  test("suggested τ's measured join time is near the best over the universe") {
    val universe = Seq(1, 2, 3)
    val cal = CostModel.calibrate(k, ds.strings.take(200), order, cfg)
    val r = TauSuggest.suggest(k, ds.strings, order, cfg, universe,
      ps = 0.12, cost = cal, nStar = 8, maxIter = 60)
    // measure actual cost-model units on the full data per τ
    val actual = universe.map { tau =>
      val sigs = LocalJoin.signatures(k, ds.strings, order, cfg.copy(tau = tau))
      val (t, cands) = LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true)
      tau -> cal.cost(t.toDouble, cands.size.toDouble)
    }.toMap
    val best = universe.minBy(actual)
    // allow the suggestion to miss the optimum by at most 50% extra cost
    assert(actual(r.tau) <= actual(best) * 1.5,
      s"suggested ${r.tau} (${actual(r.tau)}) vs best $best (${actual(best)})")
  }

  test("cached signatures leave the Eq (17)/(20) estimates unchanged") {
    val universe = Seq(1, 2, 4)
    val (ps, iters, seed) = (0.05, 30, 5L)
    val dpCfg = cfg.copy(algo = SigAlgo.AUDp)
    val r = TauSuggest.suggest(k, ds.strings, order, dpCfg, universe, ps, CostModel.Default,
      nStar = iters, maxIter = iters, seed = seed)
    assert(r.iterations == iters)
    // replay the same Bernoulli draws, selecting from a fresh context each time
    val rng = new scala.util.Random(seed)
    val t = universe.map(_ -> new OnlineStats).toMap
    val v = universe.map(_ -> new OnlineStats).toMap
    for (_ <- 1 to iters) {
      val ids = ds.strings.indices.filter(_ => rng.nextDouble() < ps)
      for (tau <- universe) {
        val sigs = ids.map(i => SignatureContext(PreparedString(k, ds.strings(i)),
          dpCfg.measures, dpCfg.q, order).select(dpCfg.algo, dpCfg.theta, tau))
        val (processed, cands) = LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true)
        t(tau).add(BernoulliEstimator.scale(processed.toDouble, ps, ps))
        v(tau).add(BernoulliEstimator.scale(cands.size.toDouble, ps, ps))
      }
    }
    assert(r.tHat == universe.map(tau => tau -> t(tau).mean).toMap)
    assert(r.vHat == universe.map(tau => tau -> v(tau).mean).toMap)
  }

  test("empty universe is rejected") {
    intercept[IllegalArgumentException] {
      TauSuggest.suggest(k, ds.strings, order, cfg, Seq.empty, 0.1, CostModel.Default)
    }
  }

  test("calibrate returns positive constants with cv >> cf") {
    val cal = CostModel.calibrate(k, ds.strings.take(150), order, cfg)
    assert(cal.cf > 0 && cal.cv > 0)
    assert(cal.cv > cal.cf, s"verification (${cal.cv}) should cost more than filtering (${cal.cf})")
  }
}
