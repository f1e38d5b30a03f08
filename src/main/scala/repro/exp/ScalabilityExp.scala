package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.TextGen
import repro.join._

/** Table 10 + Figure 7: join time of AU-Filter (DP) on Spark broken
  * into suggestion / filtering / verification, across dataset sizes.
  *
  * Filtering time = materialising the candidate DataFrame (persisted
  * count of `SparkJoin.candidates`: the rank grouping and the per-`sid`
  * overlap count); verification = `SparkJoin.verify` over the persisted
  * candidates (`LocalJoin.verifyStage` per partition on the broadcast
  * strings, no shuffle). Each shuffle takes its input's partition count,
  * so the session's shuffle-partition setting does not enter either time.
  * Suggestion runs Algorithm 7 on the driver over the same strings (its
  * samples are ~ps·n strings — independent of join size, which Table 10
  * confirms).
  */
object ScalabilityExp {

  final case class Row(dataset: String, size: Int, theta: Double, tau: Int,
      suggestMs: Double, filterMs: Double, verifyMs: Double,
      candidates: Long, results: Long)

  def run(
      spark: SparkSession,
      kind: TextGen.Kind,
      sizes: Seq[Int],
      theta: Double,
      seed: Long = 61L,
  ): Seq[Row] = {
    val ctx = Contexts.of(kind)
    sizes.map { n =>
      val strings = TextGen.joinDataset(ctx, n, seed).strings
      val order = LocalJoin.buildOrder(ctx.knowledge, strings, MeasureSet.TJS, 2)

      val t0 = System.nanoTime()
      val sug = JoinTimeExp.suggestTau(ctx, strings, order, theta, SigAlgo.AUDp)
      val tSuggest = System.nanoTime() - t0

      val cfg = LocalJoin.Config(theta, sug.tau, SigAlgo.AUDp)
      import spark.implicits._
      val df: DataFrame = strings.zipWithIndex
        .map { case (s, i) => (i.toLong, s) }.toDF("id", "str")

      val t1 = System.nanoTime()
      val cands = SparkJoin
        .candidates(spark, df, df, ctx.knowledge, order, cfg, selfJoin = true)
        .persist()
      val nCands = cands.count()
      val tFilter = System.nanoTime() - t1

      val t2 = System.nanoTime()
      val results = SparkJoin.verify(spark, cands, df, df, ctx.knowledge, cfg).count()
      val tVerify = System.nanoTime() - t2
      cands.unpersist()

      Row(kind.name, n, theta, sug.tau,
        tSuggest / 1e6, tFilter / 1e6, tVerify / 1e6, nCands, results)
    }
  }

  def format(rows: Seq[Row]): String =
    Fmt.table(
      Seq("Dataset", "Size", "θ", "τ*", "Suggestion (ms)", "Filtering (ms)",
        "Verification (ms)", "Cands", "Results"),
      rows.map(r => Seq(r.dataset, r.size.toString, r.theta.toString, r.tau.toString,
        f"${r.suggestMs}%.0f", f"${r.filterMs}%.0f", f"${r.verifyMs}%.0f",
        r.candidates.toString, r.results.toString)))

  /** Figure 7 companion: all three algorithms' wall time across sizes
    * (local engine — the paper's scalability claim is about algorithmic
    * growth, not the engine).
    */
  final case class AlgoRow(dataset: String, size: Int, algo: String, wallMs: Double)

  def algoScaling(
      kind: TextGen.Kind,
      sizes: Seq[Int],
      theta: Double,
      tau: Int = 3,
      seed: Long = 62L,
  ): Seq[AlgoRow] = {
    val ctx = Contexts.of(kind)
    for {
      n <- sizes
      strings = TextGen.joinDataset(ctx, n, seed).strings
      order = LocalJoin.buildOrder(ctx.knowledge, strings, MeasureSet.TJS, 2)
      algo <- SigAlgo.all
    } yield {
      val r = JoinTimeExp.run(ctx, strings, order, theta,
        if (algo == SigAlgo.UFilter) 1 else tau, algo)
      AlgoRow(kind.name, n, algo.label, r.wallNanos / 1e6)
    }
  }

  def formatAlgoScaling(rows: Seq[AlgoRow]): String =
    Fmt.table(
      Seq("Dataset", "Size", "Algorithm", "Wall (ms)"),
      rows.map(r => Seq(r.dataset, r.size.toString, r.algo, f"${r.wallMs}%.1f")))
}
