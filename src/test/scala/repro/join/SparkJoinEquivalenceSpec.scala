package repro.join

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core._
import repro.data.TextGen

/** Spark = local for every signature algorithm and τ: `candidates`
  * returns `LocalJoin.filterStage`'s pairs with their shared-key counts,
  * and `join` returns `LocalJoin.join`'s triples, sims bit for bit. Each
  * collection repeats some of its strings and holds empty,
  * whitespace-only and one-token strings, cross-joins share strings at
  * different ids, and one side may be empty. `computeOrder` returns the
  * local order of every joined collection, from a local and a
  * repartitioned frame, and `join` gets no order, so it builds its own.
  */
class SparkJoinEquivalenceSpec extends SparkSpec {

  private def toDF(strings: IndexedSeq[String]): DataFrame = {
    import spark.implicits._
    strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")
  }

  private def bits(sid: Long, tid: Long, sim: Double) =
    (sid, tid, java.lang.Double.doubleToLongBits(sim))

  /** Checks one (left, right) join at every algorithm and τ; returns
    * how many of those joins had results.
    */
  private def checkAll(k: Knowledge, left: IndexedSeq[String], right: IndexedSeq[String],
      theta: Double, selfJoin: Boolean): Int = {
    val (l, r) = (toDF(left), toDF(right))
    val order = LocalJoin.buildOrder(k, if (selfJoin) left else left ++ right, MeasureSet.TJS, 2)
    val frame = if (selfJoin) l else l.union(r)
    for ((df, clue) <- Seq((frame, "local"), (frame.repartition(3), "repartitioned")))
      assert(SparkJoin.computeOrder(spark, df, k) == order, s"computeOrder $clue selfJoin=$selfJoin")
    val nonEmpty = for (algo <- SigAlgo.all; tau <- Seq(1, 2, 4, 8)) yield {
      val cfg = LocalJoin.Config(theta, tau, algo)
      val clue = s"${algo.label} τ=$tau selfJoin=$selfJoin"
      val sigS = LocalJoin.signatures(k, left, order, cfg)
      val sigT = if (selfJoin) sigS else LocalJoin.signatures(k, right, order, cfg)
      val wantPairs = LocalJoin.filterStage(sigS, sigT, tau, selfJoin)._2
      val gotCands = SparkJoin.candidates(spark, l, r, k, order, cfg, selfJoin).collect()
        .map(row => (row.getAs[Long]("sid"), row.getAs[Long]("tid"), row.getAs[Long]("overlap")))
      assert(gotCands.map(c => (c._1.toInt, c._2.toInt)).sorted.toVector == wantPairs, clue)
      for ((s, t, n) <- gotCands) {
        assert(n >= tau, clue)
        assert(n == sigS(s.toInt).intersect(sigT(t.toInt)).length, s"$clue pair ($s, $t)")
      }

      val want = LocalJoin.join(k, left, right, cfg, selfJoin)._1
        .map { case (i, j, sim) => bits(i, j, sim) }
      val got = SparkJoin.join(spark, l, r, k, cfg, selfJoin).collect()
        .map(row => bits(row.getAs[Long]("sid"), row.getAs[Long]("tid"), row.getAs[Double]("sim")))
        .sorted.toVector
      assert(got == want.sorted, clue)
      want.nonEmpty
    }
    nonEmpty.count(identity)
  }

  /** Empty, whitespace-only and one-token strings (a token of `base`). */
  private def edgeCases(base: IndexedSeq[String]): IndexedSeq[String] =
    Vector("", "   ", "\t", Tokenizer.tokens(base(0)).head, Tokenizer.tokens(base(1)).last)

  for ((kind, seed, theta) <- Seq((TextGen.MedLite, 31L, 0.75), (TextGen.WikiLite, 41L, 0.8))) {
    lazy val gctx = TextGen.context(kind)
    lazy val base = TextGen.joinDataset(gctx, n = 60, seed = seed).strings
    // repeated strings make every join have results, at sim 1.0 at least;
    // the edge cases sit in both sides of the cross-join
    lazy val strings = base.take(30) ++ edgeCases(base) ++ base.drop(30) ++ base.take(6)

    test(s"${kind.name}: Spark self-join = local for every algorithm and τ") {
      assert(checkAll(gctx.knowledge, strings, strings, theta, selfJoin = true) == 12)
    }

    test(s"${kind.name}: Spark cross-join with shared strings = local for every algorithm and τ") {
      assert(checkAll(gctx.knowledge, strings.take(40), strings.drop(25), theta, selfJoin = false) == 12)
    }

    test(s"${kind.name}: Spark joins with an empty side = local (empty)") {
      val k = gctx.knowledge
      val none = Vector.empty[String]
      assert(checkAll(k, strings, none, theta, selfJoin = false) == 0)
      assert(checkAll(k, none, strings, theta, selfJoin = false) == 0)
      assert(checkAll(k, none, none, theta, selfJoin = true) == 0)
    }
  }
}
