package repro.join

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * Spark runs the key-count aggregation, the shuffle join on exploded
  * signature ranks with its per-pair overlap count, and the joins that
  * attach strings to candidates. Per-string and per-pair work calls the
  * code `LocalJoin` runs, over broadcast knowledge.
  *
  * Input frames carry columns (`id` LONG, `str` STRING).
  */
object SparkJoin {

  /** Global frequency order: the number of strings containing each
    * pebble key is counted with a Spark aggregation, then ranked by
    * `Pebbles.rank` exactly as `LocalJoin.buildOrder` ranks it.
    */
  def computeOrder(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Map[String, Int] = {
    val bk = spark.sparkContext.broadcast(k)
    val keysUdf = udf((s: String) => Pebbles.keys(bk.value, s, measures, q).toSeq)
    Pebbles.rank(strings
      .select(explode(keysUdf(col("str"))).as("key"))
      .groupBy("key")
      .agg(count(lit(1)).as("freq"))
      .collect()
      .map(r => (r.getString(0), r.getLong(1))))
  }

  /** (`id`, `key`) exploded signatures (`LocalJoin.signature`) of a
    * collection; `key` is the pebble's integer rank in `order`.
    */
  def signatureKeys(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      order: Map[String, Int],
      cfg: LocalJoin.Config,
  ): DataFrame = {
    val bk = spark.sparkContext.broadcast(k)
    val bo = spark.sparkContext.broadcast(order)
    val sigUdf = udf((s: String) => LocalJoin.signature(bk.value, s, bo.value, cfg).toSeq: Seq[Int])
    strings.select(col("id"), explode(sigUdf(col("str"))).as("key"))
  }

  /** Candidate pairs (`sid`, `tid`, `overlap`) sharing ≥ τ signature
    * pebbles — Lines 1-8 of Algorithm 6 (τ = 1 gives Algorithm 3). A
    * signature is a set of keys, so each shared key joins a pair once and
    * `count` is the number of shared keys.
    */
  def candidates(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      order: Map[String, Int],
      cfg: LocalJoin.Config,
      selfJoin: Boolean = false,
  ): DataFrame = {
    val sigL = signatureKeys(spark, left, k, order, cfg)
      .withColumnRenamed("id", "sid")
    val sigR =
      (if (selfJoin) sigL else signatureKeys(spark, right, k, order, cfg))
        .withColumnRenamed(if (selfJoin) "sid" else "id", "tid")
    val joined = sigL.join(sigR, "key")
    val paired = if (selfJoin) joined.where(col("sid") < col("tid")) else joined
    paired
      .groupBy("sid", "tid")
      .agg(count(lit(1)).as("overlap"))
      .where(col("overlap") >= cfg.tau)
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
    val order = precomputedOrder.getOrElse {
      val corpus = if (selfJoin) left else left.unionByName(right)
      computeOrder(spark, corpus, k, cfg.measures, cfg.q)
    }
    val cands = candidates(spark, left, right, k, order, cfg, selfJoin)
    verify(spark, cands, left, right, k, cfg)
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
  ): DataFrame = {
    import spark.implicits._
    val bk = spark.sparkContext.broadcast(k)
    cands
      .join(left.select(col("id").as("sid"), col("str").as("s_str")), "sid")
      .join(right.select(col("id").as("tid"), col("str").as("t_str")), "tid")
      .select("sid", "tid", "s_str", "t_str").as[(Long, Long, String, String)]
      .mapPartitions { rows =>
        val batch = rows.toVector
        val ls = batch.map(r => (r._1, r._3)).distinctBy(_._1)
        val rs = batch.map(r => (r._2, r._4)).distinctBy(_._1)
        val li = ls.iterator.map(_._1).zipWithIndex.toMap
        val ri = rs.iterator.map(_._1).zipWithIndex.toMap
        LocalJoin.verifyStage(bk.value, ls.map(_._2), rs.map(_._2),
          batch.iterator.map(r => (li(r._1), ri(r._2))), cfg, selfJoin = false)
          .iterator.map { case (i, j, sim) => (ls(i)._1, rs(j)._1, sim) }
      }
      .toDF("sid", "tid", "sim")
  }
}
