package repro.join

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * DataFrames in and out, RDD steps inside: no query plan is built per
  * request, every shuffle takes its parent's partition count, and the
  * candidate steps shuffle primitive records only. Spark does the pairwise
  * work only (signatures, candidates, verification), calling the code
  * `LocalJoin` runs over the knowledge broadcast in its packed form
  * (`Knowledge.Packed`); the frequency order is `LocalJoin.buildOrder` on
  * the driver. `join` broadcasts the knowledge and the order once each.
  * Input frames carry columns (`id` LONG, `str` STRING).
  */
object SparkJoin {

  /** Every knowledge broadcast: tasks read `bk.value.knowledge`, rebuilt
    * once per broadcast in each JVM.
    */
  private def broadcast(spark: SparkSession, k: Knowledge): Broadcast[Knowledge.Packed] =
    spark.sparkContext.broadcast(Knowledge.Packed(k))

  /** Global frequency order: `LocalJoin.buildOrder` over the frame's
    * strings, collected on the driver. `spark` is unused and kept for
    * callers.
    */
  def computeOrder(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Map[String, Int] =
    LocalJoin.buildOrder(k, texts(strings), measures, q)

  private def texts(strings: DataFrame): Vector[String] =
    strings.select("str").collect().iterator.map(_.getString(0)).toVector

  private def idStrings(strings: DataFrame): RDD[(Long, String)] =
    strings.select("id", "str").rdd.map(r => (r.getLong(0), r.getString(1)))

  /** (`rank`, `id`) for each key of each string's signature. */
  private def signatures(strings: RDD[(Long, String)], bk: Broadcast[Knowledge.Packed],
      bo: Broadcast[Map[String, Int]], cfg: LocalJoin.Config): RDD[(Int, Long)] =
    strings.flatMap { case (id, s) =>
      LocalJoin.signature(bk.value.knowledge, s, bo.value, cfg).iterator.map((_, id))
    }

  /** Candidate pairs (`sid`, `tid`, `overlap`) sharing ≥ τ signature
    * pebbles — Lines 1-8 of Algorithm 6 (τ = 1 gives Algorithm 3). A
    * signature is a set of keys, so each shared key pairs two strings
    * once: a `tid`'s run in `sid`'s sorted partners is their overlap.
    */
  def candidates(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      order: Map[String, Int],
      cfg: LocalJoin.Config,
      selfJoin: Boolean = false,
  ): DataFrame = spark.createDataFrame(overlaps(idStrings(left), idStrings(right),
    broadcast(spark, k), spark.sparkContext.broadcast(order), cfg, selfJoin)
    .map { case (s, (t, n)) => (s, t, n) }).toDF("sid", "tid", "overlap")

  private def overlaps(left: RDD[(Long, String)], right: => RDD[(Long, String)],
      bk: Broadcast[Knowledge.Packed], bo: Broadcast[Map[String, Int]], cfg: LocalJoin.Config,
      selfJoin: Boolean): RDD[(Long, (Long, Long))] = {
    val sigL = signatures(left, bk, bo, cfg)
    val pairs = if (!selfJoin) sigL.join(signatures(right, bk, bo, cfg)).values
      else sigL.groupByKey().values.map(_.toArray.sorted).flatMap(ids =>
        for (x <- ids.indices.iterator; y <- Iterator.range(x + 1, ids.length)) yield (ids(x), ids(y)))
    pairs.groupByKey().flatMapValues { group =>
      val tids = group.toArray.sorted
      val out = Vector.newBuilder[(Long, Long)]
      var from = 0
      while (from < tids.length) {
        var to = from + 1
        while (to < tids.length && tids(to) == tids(from)) to += 1
        if (to - from >= cfg.tau) out += ((tids(from), (to - from).toLong))
        from = to
      }
      out.result()
    }
  }

  /** Full join: (`sid`, `tid`, `sim`) with USIM(S,T) ≥ θ (Algorithm 6). */
  def join(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
      selfJoin: Boolean = false,
      precomputedOrder: Option[Map[String, Int]] = None,
  ): DataFrame = {
    val bk = broadcast(spark, k)
    val l = idStrings(left)
    val r = if (selfJoin) l else idStrings(right)
    val order = precomputedOrder.getOrElse(LocalJoin.buildOrder(k,
      if (selfJoin) texts(left) else texts(left) ++ texts(right), cfg.measures, cfg.q))
    val cands = overlaps(l, r, bk, spark.sparkContext.broadcast(order), cfg, selfJoin)
    verified(spark, cands.mapValues(_._1), l, r, bk, cfg)
  }

  /** Verification stage: attach strings, then verify each partition's
    * pairs with `LocalJoin.verifyStage`. Left and right ids get separate
    * local indices, since a two-collection join's ids may overlap.
    */
  def verify(
      spark: SparkSession,
      cands: DataFrame,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
  ): DataFrame = verified(spark, cands.select("sid", "tid").rdd.map(r => (r.getLong(0), r.getLong(1))),
    idStrings(left), idStrings(right), broadcast(spark, k), cfg)

  private def verified(spark: SparkSession, pairs: RDD[(Long, Long)], left: RDD[(Long, String)],
      right: RDD[(Long, String)], bk: Broadcast[Knowledge.Packed], cfg: LocalJoin.Config): DataFrame = {
    import spark.implicits._
    pairs.join(left)
      .map { case (sid, (tid, s)) => (tid, (sid, s)) }
      .join(right)
      .map { case (tid, ((sid, s), t)) => (sid, tid, s, t) }
      .mapPartitions { rows =>
        val batch = rows.toVector
        val ls = batch.map(r => (r._1, r._3)).distinctBy(_._1)
        val rs = batch.map(r => (r._2, r._4)).distinctBy(_._1)
        val li = ls.iterator.map(_._1).zipWithIndex.toMap
        val ri = rs.iterator.map(_._1).zipWithIndex.toMap
        LocalJoin.verifyStage(bk.value.knowledge, ls.map(_._2), rs.map(_._2),
          batch.iterator.map(r => (li(r._1), ri(r._2))), cfg, selfJoin = false)
          .iterator.map { case (i, j, sim) => (ls(i)._1, rs(j)._1, sim) }
      }
      .toDF("sid", "tid", "sim")
  }
}
