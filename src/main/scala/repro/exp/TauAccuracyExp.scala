package repro.exp

import repro.core._
import repro.data.TextGen
import repro.join._
import repro.tune._

/** Table 12: how often Algorithm 7 suggests the measured-optimal τ, and
  * what fraction of the total join time the suggestion costs.
  *
  * "Optimal" is the τ whose actual join run (on the full bench dataset)
  * is fastest in cost-model units; a suggestion also counts as correct
  * if its measured cost is within 5% of the optimum (timing ties).
  */
object TauAccuracyExp {

  final case class Row(dataset: String, theta: Double, accuracy: Double,
      timeFraction: Double, optimalTau: Int, suggestMs: Double)

  def run(
      kind: TextGen.Kind,
      n: Int,
      thetas: Seq[Double] = Seq(0.75, 0.85, 0.95),
      universe: Seq[Int] = Seq(1, 2, 4, 6, 8),
      repeats: Int = 30,
      seed: Long = 71L,
  ): Seq[Row] = {
    val ctx = Contexts.of(kind)
    val strings = TextGen.joinDataset(ctx, n, seed).strings
    val order = LocalJoin.buildOrder(ctx.knowledge, strings, MeasureSet.TJS, 2)
    thetas.map { theta =>
      val cfg = LocalJoin.Config(theta, 1, SigAlgo.AUHeuristic)
      val cal = CostModel.calibrate(ctx.knowledge, strings.take(300), order, cfg)
      // ground truth: measured cost per τ on the full dataset
      val actual = universe.map { tau =>
        val sigs = LocalJoin.signatures(ctx.knowledge, strings, order, cfg.copy(tau = tau))
        val (t, cands) = LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true)
        tau -> cal.cost(t.toDouble, cands.size.toDouble)
      }.toMap
      val best = universe.minBy(actual)
      val tol = actual(best) * 1.05
      var hits = 0
      var sugNanos = 0L
      for (r <- 1 to repeats) {
        val res = TauSuggest.suggest(ctx.knowledge, strings, order, cfg, universe,
          ps = 0.05, cal, nStar = 10, maxIter = 120, seed = seed + r)
        if (actual(res.tau) <= tol) hits += 1
        sugNanos += res.nanos
      }
      // join time at the suggested τ (single representative run)
      val joinRun = JoinTimeExp.run(ctx, strings, order, theta, best, SigAlgo.AUHeuristic)
      val avgSug = sugNanos.toDouble / repeats
      Row(kind.name, theta, hits.toDouble / repeats,
        avgSug / (avgSug + joinRun.wallNanos), best, avgSug / 1e6)
    }
  }

  def format(rows: Seq[Row]): String =
    Fmt.table(
      Seq("Dataset", "θ", "Accuracy", "Time fraction", "Suggest (ms)", "Optimal τ"),
      rows.map(r => Seq(r.dataset, r.theta.toString, f"${r.accuracy * 100}%.0f%%",
        f"${r.timeFraction * 100}%.2f%%", f"${r.suggestMs}%.1f", r.optimalTau.toString)))
}
