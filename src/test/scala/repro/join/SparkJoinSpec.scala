package repro.join

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler._
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

  private def bits(sid: Long, tid: Long, sim: Double) = (sid, tid, java.lang.Double.doubleToLongBits(sim))

  private def simBits(df: DataFrame): Vector[(Long, Long, Long)] = df.collect()
    .map(row => bits(row.getAs[Long]("sid"), row.getAs[Long]("tid"), row.getAs[Double]("sim")))
    .toVector.sorted

  private def collectPairs(df: DataFrame): Set[(Int, Int)] =
    df.select("sid", "tid").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet

  test("computeOrder matches the local frequency order ranking") {
    val df = toDF(ds.strings.take(50))
    val sparkOrder = SparkJoin.computeOrder(spark, df, k)
    val localOrder = LocalJoin.buildOrder(k, ds.strings.take(50), MeasureSet.TJS, 2)
    assert(sparkOrder == localOrder)
  }

  test("Spark = local under Figure 1's knowledge and the empty knowledge") {
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

  test("Oracle: cross-join candidates match DuckDB over both sides' exploded signatures") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUHeuristic)
    // the sides share strings, at different ids
    val (left, right) = (ds.strings.take(60), ds.strings.drop(40).take(60))
    val order = LocalJoin.buildOrder(k, left ++ right, cfg.measures, cfg.q)
    val cands = SparkJoin.candidates(spark, toDF(left), toDF(right), k, order, cfg)
    assert(cands.count() > 0)
    Oracle.assertEquivalent(
      cands,
      s"""SELECT l.id AS sid, r.id AS tid, count(*) AS overlap
         |FROM sigl l JOIN sigr r ON l.key = r.key
         |GROUP BY l.id, r.id
         |HAVING count(*) >= ${cfg.tau}""".stripMargin,
      "sigl" -> signatureRows(left, order, cfg),
      "sigr" -> signatureRows(right, order, cfg),
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

  test("the order ships packed and rebuilds identically, also after Java serialisation") {
    val bos = new java.io.ByteArrayOutputStream()
    def javaRoundTrip(p: SparkJoin.PackedOrder): SparkJoin.PackedOrder = {
      bos.reset()
      new java.io.ObjectOutputStream(bos).writeObject(p)
      new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
        .readObject().asInstanceOf[SparkJoin.PackedOrder]
    }
    val wiki = TextGen.context(TextGen.WikiLite)
    for (order <- Seq(Map.empty[String, Int], Map("só" -> 0),
        LocalJoin.buildOrder(k, ds.strings, MeasureSet.TJS, 2),
        LocalJoin.buildOrder(wiki.knowledge, TextGen.joinDataset(wiki, n = 100, seed = 41L).strings,
          MeasureSet.TJS, 2))) {
      assert(SparkJoin.PackedOrder(order).order == order)
      assert(javaRoundTrip(SparkJoin.PackedOrder(order)).order == order)
    }
    for (gappy <- Seq(Map("a" -> 1), Map("a" -> 0, "b" -> 0), Map("a" -> -1)))
      intercept[IllegalArgumentException](SparkJoin.PackedOrder(gappy))
  }

  test("frames are read by column name: (str, tag, id) frames give the (id, str) output") {
    import spark.implicits._
    def tagged(strings: IndexedSeq[String]): DataFrame =
      strings.zipWithIndex.map { case (s, i) => (s, s"tag $i", i.toLong) }.toDF("str", "tag", "id")
    def overlaps(df: DataFrame) = df.collect()
      .map(r => (r.getAs[Long]("sid"), r.getAs[Long]("tid"), r.getAs[Long]("overlap"))).toVector.sorted
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUHeuristic)
    // the sides of the cross-join share strings, so it has results, at different ids
    for ((left, right, selfJoin) <- Seq((ds.strings, ds.strings, true),
        (ds.strings.take(90), ds.strings.drop(60), false))) {
      val order = LocalJoin.buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q)
      def outputs(l: DataFrame, r: DataFrame) = {
        val cands = SparkJoin.candidates(spark, l, r, k, order, cfg, selfJoin)
        (SparkJoin.computeOrder(spark, l, k), overlaps(cands),
          simBits(SparkJoin.verify(spark, cands.select("overlap", "tid", "sid"), l, r, k, cfg)),
          simBits(SparkJoin.join(spark, l, r, k, cfg, selfJoin)))
      }
      val (plainL, taggedL) = (toDF(left), tagged(left))
      val want = outputs(plainL, if (selfJoin) plainL else toDF(right))
      assert(want._1 == LocalJoin.buildOrder(k, left, cfg.measures, cfg.q) && want._4.nonEmpty)
      assert(outputs(taggedL, if (selfJoin) taggedL else tagged(right)) == want, s"selfJoin=$selfJoin")
    }
  }

  /** The stages of each job that `run` starts, by job, seen by a `SparkListener`. */
  private def jobsOf(run: => Unit): Vector[Vector[StageInfo]] = {
    val sc = spark.sparkContext
    val tag = "repro.test.plan"
    val jobs = new ConcurrentLinkedQueue[SparkListenerJobStart]()
    val stages = new ConcurrentLinkedQueue[StageInfo]()
    val markerDone = new CountDownLatch(1)
    val listener = new SparkListener {
      private var marker = -1 // events reach a listener on one thread, in order
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(tag)) match {
          case Some("run") => jobs.add(e)
          case Some("marker") => marker = e.jobId
          case _ =>
        }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.add(e.stageInfo)
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == marker) markerDone.countDown()
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tag, "run")
      run
      // once the marker job's end has arrived, every event of the run has
      sc.setLocalProperty(tag, "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerDone.await(60, TimeUnit.SECONDS))
    } finally {
      sc.setLocalProperty(tag, null)
      sc.removeSparkListener(listener)
    }
    jobs.asScala.toVector.sortBy(_.jobId).map { job =>
      val ids = job.stageIds.toSet
      stages.asScala.filter(s => ids(s.stageId)).toVector
    }
  }

  test("a join runs two jobs of one stage each and shuffles nothing") {
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUHeuristic)
    // the sides of the cross-join share strings, so it has results, at different ids
    for ((left, right, selfJoin) <- Seq((ds.strings, ds.strings, true),
        (ds.strings.take(90), ds.strings.drop(60), false))) {
      val (l, r) = (toDF(left), toDF(right))
      val rr = if (selfJoin) l else r
      val order = LocalJoin.buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q)
      // Spark memoizes `rdd` per frame, so a join reading a frame's rows in a task reads this RDD
      val frames = Set(l.rdd.id, r.rdd.id)
      for ((call, clue) <- Seq[(() => DataFrame, String)](
          (() => SparkJoin.join(spark, l, rr, k, cfg, selfJoin, precomputedOrder = Some(order)), "join"),
          (() => SparkJoin.candidates(spark, l, rr, k, order, cfg, selfJoin), "candidates"))) {
        val jobs = jobsOf(assert(call().collect().nonEmpty))
        val ran = jobs.flatten
        val shuffled = ran.map(s => s.name ->
          (s.taskMetrics.shuffleWriteMetrics.recordsWritten, s.taskMetrics.shuffleReadMetrics.recordsRead))
        assert(jobs.map(_.length) == Vector(1, 1), s"$clue selfJoin=$selfJoin: $shuffled")
        assert(shuffled.forall(_._2 == ((0L, 0L))), s"$clue selfJoin=$selfJoin: $shuffled")
        assert(!ran.exists(_.rddInfos.exists(i => frames(i.id))), s"$clue selfJoin=$selfJoin: ${ran.map(_.name)}")
      }
    }
  }

  test("joins under one knowledge instance share one broadcast; an equal copy gets its own") {
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUHeuristic)
    // instances no other test has joined under, with the content of `k`
    val (k1, k2) = (new Knowledge(k.rules, k.taxonomy), new Knowledge(k.rules, k.taxonomy))
    val df = toDF(ds.strings)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    def joined(kk: Knowledge) = simBits(SparkJoin.join(spark, df, df, kk, cfg, selfJoin = true, Some(order)))
    val want = joined(k)
    val first = joined(k1)
    val id = SparkJoin.knowledgeBroadcastId(spark, k1)
    val cands = SparkJoin.candidates(spark, df, df, k1, order, cfg, selfJoin = true)
    val verified = simBits(SparkJoin.verify(spark, cands, df, df, k1, cfg))
    val second = joined(k1)
    assert(SparkJoin.knowledgeBroadcastId(spark, k1) == id)
    val copy = joined(k2)
    assert(SparkJoin.knowledgeBroadcastId(spark, k2) != id)
    assert(SparkJoin.knowledgeBroadcastId(spark, k1) == id)
    assert(want.nonEmpty && first == want && verified == want && second == want && copy == want)
  }

  test("join, candidates and verify reject repeated ids, naming the id") {
    import spark.implicits._
    val kk = Knowledge.figure1
    val cfg = LocalJoin.Config(0.5, 1, SigAlgo.UFilter)
    val dup = Seq((0L, "coffee shop latte"), (1L, "cafe latte"), (0L, "coffee shop latte"), (2L, "apple cake"))
      .toDF("id", "str")
    val ok = toDF(Vector("coffee shop latte", "cafe latte", "apple cake"))
    val order = SparkJoin.computeOrder(spark, dup, kk) // reads only `str`
    val cands = SparkJoin.candidates(spark, ok, ok, kk, order, cfg, selfJoin = true)
    for ((call, clue) <- Seq[(() => DataFrame, String)](
        (() => SparkJoin.join(spark, dup, dup, kk, cfg, selfJoin = true), "self-join"),
        (() => SparkJoin.join(spark, ok, dup, kk, cfg), "cross-join, right"),
        (() => SparkJoin.join(spark, dup, ok, kk, cfg), "cross-join, left"),
        (() => SparkJoin.candidates(spark, dup, dup, kk, order, cfg, selfJoin = true), "candidates"),
        (() => SparkJoin.candidates(spark, ok, dup, kk, order, cfg), "cross candidates"),
        (() => SparkJoin.verify(spark, cands, dup, dup, kk, cfg), "verify"),
        (() => SparkJoin.verify(spark, cands, ok, dup, kk, cfg), "verify, right"))) {
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("id 0 occurs more than once"), s"$clue: ${e.getMessage}")
    }
    // the two sides of a cross-join may share ids
    val other = toDF(Vector("cafe latte", "coffee shop latte"))
    val want = LocalJoin.join(kk, Vector("coffee shop latte", "cafe latte", "apple cake"),
      Vector("cafe latte", "coffee shop latte"), cfg)._1.map { case (i, j, sim) => bits(i, j, sim) }
    assert(want.nonEmpty && simBits(SparkJoin.join(spark, ok, other, kk, cfg)) == want.sorted)
    // a candidate whose id is not in its frame fails the verification
    val stray = Seq((0L, 99L)).toDF("sid", "tid")
    val e = intercept[org.apache.spark.SparkException](SparkJoin.verify(spark, stray, ok, ok, kk, cfg).collect())
    assert(e.getMessage.contains("id 99 is not in the frame"), e.getMessage)
  }

  test("shuffled, sparse and negative ids give LocalJoin's output by id") {
    import spark.implicits._
    val rnd = new scala.util.Random(7L)
    // distinct ids far apart, of both signs, with both extremes, in random row order
    def randomIds(n: Int): Vector[Long] =
      rnd.shuffle(Vector(Long.MinValue, Long.MaxValue) ++ Iterator.continually(rnd.nextLong() / 3).distinct.take(n - 2))
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUHeuristic)
    // the sides of the cross-join share strings, so it has results, at different ids
    for ((left, right, selfJoin) <- Seq((ds.strings, ds.strings, true),
        (ds.strings.take(90), ds.strings.drop(60), false))) {
      val idsL = randomIds(left.length)
      val idsR = if (selfJoin) idsL else randomIds(right.length)
      // the local join runs over each side's strings in id order, its positions mapped to ids by the id table
      def byId(ids: Vector[Long], strings: IndexedSeq[String]) = ids.indices.sortBy(ids).map(i => (ids(i), strings(i)))
      val ((tableL, strsL), (tableR, strsR)) = (byId(idsL, left).unzip, byId(idsR, right).unzip)
      def ided(i: Int, j: Int, v: Long) = (tableL(i), tableR(j), v)
      val order = LocalJoin.buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q)
      val sigS = LocalJoin.signatures(k, strsL, order, cfg)
      val sigT = if (selfJoin) sigS else LocalJoin.signatures(k, strsR, order, cfg)
      val pairs = LocalJoin.filterStage(sigS, sigT, cfg.tau, selfJoin)._2
      val wantCands = pairs.map { case (i, j) => ided(i, j, sigS(i).intersect(sigT(j)).length.toLong) }.sorted
      val wantVerified = LocalJoin.verifyStage(k, strsL, strsR, pairs.iterator, cfg, selfJoin)
        .map { case (i, j, sim) => ided(i, j, java.lang.Double.doubleToLongBits(sim)) }.sorted
      val wantJoin = LocalJoin.join(k, strsL, strsR, cfg, selfJoin, precomputedOrder = Some(order))._1
        .map { case (i, j, sim) => ided(i, j, java.lang.Double.doubleToLongBits(sim)) }.sorted
      assert(wantCands.nonEmpty && wantJoin.nonEmpty && wantJoin == wantVerified)
      val plainL = idsL.zip(left).toDF("id", "str")
      val plainR = idsR.zip(right).toDF("id", "str")
      for ((l, r, clue) <- Seq((plainL, plainR, "local"),
          (plainL.repartition(3), plainR.repartition(2), "repartitioned"))) {
        val rr = if (selfJoin) l else r
        val cands = SparkJoin.candidates(spark, l, rr, k, order, cfg, selfJoin)
        assert(cands.collect().map(row => (row.getLong(0), row.getLong(1), row.getLong(2))).toVector.sorted ==
          wantCands, s"candidates $clue selfJoin=$selfJoin")
        assert(simBits(SparkJoin.verify(spark, cands.repartition(3), l, rr, k, cfg)) == wantVerified,
          s"verify $clue selfJoin=$selfJoin")
        assert(simBits(SparkJoin.join(spark, l, rr, k, cfg, selfJoin, Some(order))) == wantJoin,
          s"join $clue selfJoin=$selfJoin")
      }
    }
  }
}
