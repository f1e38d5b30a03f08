package repro

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import repro.core.{MeasureSet, Measures}
import repro.data.TextGen
import repro.jobs.JobUtil
import repro.join.{JoinStats, LocalJoin, SigAlgo, SparkJoin}
import repro.tune.{CostModel, TauSuggest}

/** SHA-256 digests of the join's outputs, to show that a refactor
  * changes none of them: compare the hashes at the parent commit and at
  * the change.
  *
  * The output digest covers `SparkJoin`: `computeOrder`, self-join
  * `candidates` as (sid, tid, overlap), and self-joins and cross-joins
  * (first 60% × last 60%, the join building its own order) as (sid, tid,
  * sim bits), for every signature algorithm at τ 1 and 4, over the
  * collections both perfbench workloads generate at seeds 3 and 31
  * (`TextGen.context` and `joinDataset` at seed·1000003 + batch). Records
  * are sorted before they are hashed, so row order does not count.
  *
  * The extended digest covers the same records and, on the same
  * collections and configurations, cross-join `candidates` as (sid, tid,
  * overlap), `LocalJoin.join`'s results as (i, j,
  * sim bits) and its `JoinStats` (the average signature length as bits),
  * self and cross, with an order from `buildOrder` and without one; and
  * `TauSuggest.suggest` for both AU algorithms under `CostModel.Default`,
  * which times nothing: τ, iterations, and Ĉ/T̂/V̂ per τ as bits.
  *
  * {{{
  * sbt "Test/runMain repro.OutputDigest"
  * }}}
  */
object OutputDigest {

  private final case class Workload(kind: TextGen.Kind, n: Int, batches: Int, theta: Double)

  /** The collections and thresholds of `med-tjs-local` and `wiki-tjs-spark`. */
  private val workloads = Seq(
    Workload(TextGen.MedLite, 150, 24, 0.75),
    Workload(TextGen.WikiLite, 100, 8, 0.95))

  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("output-digest")
    import spark.implicits._
    def toDF(strings: IndexedSeq[String]): DataFrame =
      strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")

    val (sha, extended) = (MessageDigest.getInstance("SHA-256"), MessageDigest.getInstance("SHA-256"))
    var (records, extendedRecords) = (0L, 0L)
    def update(to: MessageDigest, section: String, lines: Seq[String]): Unit = {
      to.update(s"$section ${lines.length}\n".getBytes("UTF-8"))
      for (line <- lines) to.update(s"$line\n".getBytes("UTF-8"))
    }
    def put(section: String, lines: Seq[String]): Unit = {
      update(sha, section, lines)
      records += lines.length
      putExtended(section, lines)
    }
    def putExtended(section: String, lines: Seq[String]): Unit = {
      update(extended, section, lines)
      extendedRecords += lines.length
    }
    def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)
    def local(r: (Vector[(Int, Int, Double)], JoinStats)): Seq[String] = {
      val st = r._2
      s"stats ${st.processedPairs} ${st.candidates} ${st.pruned} ${st.results} ${bits(st.avgSignatureLen)}" +:
        r._1.map { case (i, j, sim) => s"$i $j ${bits(sim)}" }
    }
    def triples(df: DataFrame, value: String): Seq[String] = df.collect().toSeq
      .map(r => (r.getAs[Long]("sid"), r.getAs[Long]("tid"), value match {
        case "sim" => java.lang.Double.doubleToLongBits(r.getAs[Double]("sim"))
        case col => r.getAs[Long](col)
      })).sorted.map { case (s, t, v) => s"$s $t $v" }

    var collections = 0
    for (w <- workloads; seed <- Seq(3L, 31L); b <- 0 until w.batches) {
      val ctx = TextGen.context(w.kind, seed * 1000003L + b)
      val strings = TextGen.joinDataset(ctx, w.n, seed * 1000003L + b).strings
      val k = ctx.knowledge
      val df = toDF(strings)
      val name = s"${w.kind.name} seed=$seed batch=$b"
      val order = SparkJoin.computeOrder(spark, df, k)
      put(s"$name order", order.toSeq.sortBy(_._2).map { case (key, r) => s"$r $key" })
      val side = (strings.length * 0.6).toInt
      val (ls, rs) = (strings.take(side), strings.drop(strings.length - side))
      val (left, right) = (toDF(ls), toDF(rs))
      val crossOrder = LocalJoin.buildOrder(k, ls ++ rs, MeasureSet.TJS, Measures.DefaultQ)
      for (algo <- SigAlgo.all; tau <- Seq(1, 4)) {
        val cfg = LocalJoin.Config(w.theta, tau, algo, MeasureSet.TJS)
        val clue = s"$name ${algo.label} τ=$tau"
        put(s"$clue candidates",
          triples(SparkJoin.candidates(spark, df, df, k, order, cfg, selfJoin = true), "overlap"))
        put(s"$clue self-join", triples(SparkJoin.join(spark, df, df, k, cfg, selfJoin = true,
          precomputedOrder = Some(order)), "sim"))
        put(s"$clue cross-join", triples(SparkJoin.join(spark, left, right, k, cfg), "sim"))
        putExtended(s"$clue cross candidates",
          triples(SparkJoin.candidates(spark, left, right, k, crossOrder, cfg), "overlap"))
        putExtended(s"$clue local self-join", local(LocalJoin.join(k, strings, strings, cfg, selfJoin = true,
          precomputedOrder = Some(order))))
        putExtended(s"$clue local self-join, own order",
          local(LocalJoin.join(k, strings, strings, cfg, selfJoin = true)))
        putExtended(s"$clue local cross-join", local(LocalJoin.join(k, ls, rs, cfg,
          precomputedOrder = Some(crossOrder))))
        putExtended(s"$clue local cross-join, own order", local(LocalJoin.join(k, ls, rs, cfg)))
      }
      for (algo <- Seq(SigAlgo.AUHeuristic, SigAlgo.AUDp)) {
        val r = TauSuggest.suggest(k, strings, order, LocalJoin.Config(w.theta, 1, algo, MeasureSet.TJS),
          universe = Seq(1, 2, 4, 6, 8), ps = 0.05, cost = CostModel.Default, nStar = 10, maxIter = 120)
        putExtended(s"$name ${algo.label} suggest", s"tau ${r.tau} iterations ${r.iterations}" +:
          r.costs.keys.toSeq.sorted.map(t => s"$t ${bits(r.costs(t))} ${bits(r.tHat(t))} ${bits(r.vHat(t))}"))
      }
      collections += 1
    }
    println(s"output digest: ${sha.digest().map(b => f"$b%02x").mkString} " +
      s"($records records, $collections collections)")
    println(s"extended digest: ${extended.digest().map(b => f"$b%02x").mkString} " +
      s"($extendedRecords records, $collections collections)")
    spark.stop()
  }
}
