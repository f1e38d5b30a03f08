package repro.join

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * Pebble-signature generation and USIM verification run as DataFrame
  * UDFs over broadcast knowledge; candidate generation is a shuffle
  * join on exploded signature keys followed by a per-pair overlap
  * count (signature keys are distinct per string, so `count(*)` is the
  * distinct-pebble overlap the paper's Algorithm 6 counts).
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
    val keysUdf = udf { (s: String) =>
      val toks = Tokenizer.tokens(s)
      Pebbles
        .generate(bk.value, Segments.wellDefined(bk.value, toks), measures, q)
        .iterator.map(_.key).toSet.toSeq
    }
    Pebbles.rank(strings
      .select(explode(keysUdf(col("str"))).as("key"))
      .groupBy("key")
      .agg(count(lit(1)).as("freq"))
      .collect()
      .map(r => (r.getString(0), r.getLong(1))))
  }

  /** (`id`, `key`) exploded signatures of a collection; `key` is the
    * pebble's integer rank in `order`.
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
    val sigUdf = udf { (s: String) =>
      new SignatureContext(Tokenizer.tokens(s), bk.value, cfg.measures, cfg.q, bo.value)
        .select(cfg.algo, cfg.theta, cfg.tau)
        .toSeq: Seq[Int]
    }
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

  /** Verification stage: attach strings and keep pairs with USIM ≥ θ. */
  def verify(
      spark: SparkSession,
      cands: DataFrame,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
  ): DataFrame = {
    val bk = spark.sparkContext.broadcast(k)
    val usimUdf = udf { (s: String, t: String) =>
      Usim.approx(bk.value, s, t, cfg.measures, cfg.q, cfg.tParam)
    }
    cands
      .join(left.select(col("id").as("sid"), col("str").as("s_str")), "sid")
      .join(right.select(col("id").as("tid"), col("str").as("t_str")), "tid")
      .withColumn("sim", usimUdf(col("s_str"), col("t_str")))
      .where(col("sim") >= LocalJoin.minSim(cfg.theta))
      .select("sid", "tid", "sim")
  }
}
