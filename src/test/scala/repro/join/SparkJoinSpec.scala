package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.TextGen

class SparkJoinSpec extends SparkSpec {
  lazy val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  lazy val k: Knowledge = gctx.knowledge
  lazy val ds: TextGen.JoinDataset = TextGen.joinDataset(gctx, n = 150, seed = 31L)

  private def toDF(strings: IndexedSeq[String]): DataFrame = {
    import spark.implicits._
    strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")
  }

  /** (`id`, `key`): each string's local signature keys, exploded. */
  private def signatureRows(strings: IndexedSeq[String], order: Map[String, Int],
      cfg: LocalJoin.Config): DataFrame = {
    import spark.implicits._
    LocalJoin.signatures(k, strings, order, cfg).zipWithIndex
      .flatMap { case (sig, i) => sig.map(key => (i.toLong, key)) }.toDF("id", "key")
  }

  private def collectPairs(df: DataFrame): Set[(Int, Int)] =
    df.select("sid", "tid").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet

  test("computeOrder matches the local frequency order ranking") {
    val df = toDF(ds.strings.take(50))
    val sparkOrder = SparkJoin.computeOrder(spark, df, k)
    val localOrder = LocalJoin.buildOrder(k, ds.strings.take(50), MeasureSet.TJS, 2)
    assert(sparkOrder == localOrder)
  }

  test("Spark = local under Figure 1's knowledge and the empty knowledge") {
    def bits(sid: Long, tid: Long, sim: Double) = (sid, tid, java.lang.Double.doubleToLongBits(sim))
    val fig1 = Vector("coffee shop latte", "cafe latte", "apple cake with espresso",
      "gateau and coffee drinks", "cake with latte", "coffee shop latte", "espresso cake")
    for ((name, kk, strings) <- Seq(("figure1", Knowledge.figure1, fig1),
        ("empty", Knowledge.empty, fig1 ++ ds.strings.take(40))); algo <- SigAlgo.all) {
      val clue = s"$name ${algo.label}"
      val cfg = LocalJoin.Config(0.5, 2, algo)
      val df = toDF(strings)
      assert(SparkJoin.computeOrder(spark, df, kk) ==
        LocalJoin.buildOrder(kk, strings, cfg.measures, cfg.q), clue)
      val want = LocalJoin.join(kk, strings, strings, cfg, selfJoin = true)._1
        .map { case (i, j, sim) => bits(i, j, sim) }
      val got = SparkJoin.join(spark, df, df, kk, cfg, selfJoin = true).collect()
        .map(row => bits(row.getAs[Long]("sid"), row.getAs[Long]("tid"), row.getAs[Double]("sim")))
      assert(want.nonEmpty, clue)
      assert(got.sorted.toVector == want.sorted, clue)
    }
  }

  test("Spark self-join equals local self-join (U-Filter)") {
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(
      SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
        selfJoin = true, precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true,
      precomputedOrder = Some(order))._1.map(r => (r._1, r._2)).toSet
    assert(got == want)
  }

  test("Spark self-join equals local self-join (AU-Filter DP, τ=2)") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUDp)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(
      SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
        selfJoin = true, precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true,
      precomputedOrder = Some(order))._1.map(r => (r._1, r._2)).toSet
    assert(got == want)
  }

  test("Spark two-collection join equals local join") {
    // the sides share strings, so the join has results, at different ids
    val left = ds.strings.take(90)
    val right = ds.strings.drop(60)
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(SparkJoin.join(spark, toDF(left), toDF(right), k, cfg,
      precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, left, right, cfg, precomputedOrder = Some(order))
      ._1.map(r => (r._1, r._2)).toSet
    assert(want.nonEmpty)
    assert(got == want)
  }

  test("Oracle: candidate generation SQL matches DuckDB over exploded signatures") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUHeuristic)
    val strings = ds.strings.take(80)
    val df = toDF(strings)
    val order = LocalJoin.buildOrder(k, strings, cfg.measures, cfg.q)
    val sig = signatureRows(strings, order, cfg)
    val cands = SparkJoin
      .candidates(spark, df, df, k, order, cfg, selfJoin = true)
      .select(col("sid"), col("tid"), col("overlap").cast("long").as("overlap"))
    Oracle.assertEquivalent(
      cands,
      s"""SELECT l.id AS sid, r.id AS tid, count(*) AS overlap
         |FROM sig l JOIN sig r ON l.key = r.key
         |WHERE CAST(l.id AS BIGINT) < CAST(r.id AS BIGINT)
         |GROUP BY l.id, r.id
         |HAVING count(*) >= ${cfg.tau}""".stripMargin,
      "sig" -> sig,
    )
  }

  test("Oracle catches wrong results") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUHeuristic)
    val strings = ds.strings.take(80)
    val df = toDF(strings)
    val order = LocalJoin.buildOrder(k, strings, cfg.measures, cfg.q)
    val sig = signatureRows(strings, order, cfg)
    val wrong = SparkJoin
      .candidates(spark, df, df, k, order, cfg, selfJoin = true)
      .select(col("sid"), col("tid"), (col("overlap").cast("long") + 1).as("overlap")) // off by one
    assert(wrong.count() > 0)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        s"""SELECT l.id AS sid, r.id AS tid, count(*) AS overlap
           |FROM sig l JOIN sig r ON l.key = r.key
           |WHERE CAST(l.id AS BIGINT) < CAST(r.id AS BIGINT)
           |GROUP BY l.id, r.id
           |HAVING count(*) >= ${cfg.tau}""".stripMargin,
        "sig" -> sig,
      )
    }
  }

  test("verification stage drops below-θ candidates") {
    val cfg = LocalJoin.Config(0.9, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val df = toDF(ds.strings)
    val cands = SparkJoin.candidates(spark, df, df, k, order, cfg, selfJoin = true)
    val verified = SparkJoin.verify(spark, cands, df, df, k, cfg)
    assert(verified.count() <= cands.count())
    val sims = verified.select("sim").collect().map(_.getDouble(0))
    assert(sims.forall(_ >= cfg.theta - 1e-9))
  }

  test("verify returns LocalJoin.verifyStage's triples, sims bit for bit") {
    def bits(sid: Long, tid: Long, sim: Double) = (sid, tid, java.lang.Double.doubleToLongBits(sim))
    def check(kk: Knowledge, left: IndexedSeq[String], right: IndexedSeq[String],
        selfJoin: Boolean, partitions: Int): Unit = {
      val cfg = LocalJoin.Config(0.6, 1, SigAlgo.UFilter)
      val order = LocalJoin.buildOrder(kk, if (selfJoin) left else left ++ right, cfg.measures, cfg.q)
      val (l, r) = (toDF(left), toDF(right)) // ids from 0 on both sides
      val cands = SparkJoin.candidates(spark, l, r, kk, order, cfg, selfJoin).repartition(partitions)
      val pairs = cands.select("sid", "tid").collect()
        .map(row => (row.getLong(0).toInt, row.getLong(1).toInt)).sorted
      val want = LocalJoin.verifyStage(kk, left, right, pairs.iterator, cfg, selfJoin)
        .map { case (i, j, sim) => bits(i, j, sim) }.toSet
      val got = SparkJoin.verify(spark, cands, l, r, kk, cfg).collect()
        .map(row => bits(row.getAs[Long]("sid"), row.getAs[Long]("tid"), row.getAs[Double]("sim")))
      assert(want.nonEmpty)
      assert(got.length == want.size && got.toSet == want)
    }
    check(k, ds.strings, ds.strings, selfJoin = true, partitions = 4)
    // the sides share strings, so the join has results, at different ids
    check(k, ds.strings.take(90), ds.strings.drop(60), selfJoin = false, partitions = 1)
    val wiki = TextGen.context(TextGen.WikiLite)
    val wds = TextGen.joinDataset(wiki, n = 120, seed = 41L).strings
    check(wiki.knowledge, wds.take(70), wds.drop(50), selfJoin = false, partitions = 3)
  }

  test("planted pairs that verify above θ are found by the Spark join") {
    val cfg = LocalJoin.Config(0.7, 1, SigAlgo.UFilter)
    val got = collectPairs(SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
      selfJoin = true))
    val expected = ds.truePairs.filter { case (i, j) =>
      Usim.approx(k, ds.strings(i), ds.strings(j)) >= cfg.theta }
    assert(expected.nonEmpty && expected.subsetOf(got))
  }

  test("empty input joins to empty output") {
    import spark.implicits._
    val empty = Seq.empty[(Long, String)].toDF("id", "str")
    val cfg = LocalJoin.Config(0.8, 1, SigAlgo.UFilter)
    assert(SparkJoin.join(spark, empty, empty, k, cfg, selfJoin = true,
      precomputedOrder = Some(Map.empty)).count() == 0)
  }
}
