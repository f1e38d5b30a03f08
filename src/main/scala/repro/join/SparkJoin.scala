package repro.join

import scala.collection.immutable.ArraySeq
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StructField, StructType}
import repro.core._

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * DataFrames in and out, RDD steps inside: no query is planned per
  * request and no step shuffles. Spark does the pairwise work only
  * (signatures, candidates, verification), calling the code `LocalJoin`
  * runs over the knowledge broadcast in its packed form
  * (`Knowledge.Packed`, once per knowledge and `SparkContext`); the
  * frequency order is `LocalJoin.buildOrder` on the driver and ships as a
  * [[SparkJoin.PackedOrder]]. Each call collects its frames once on the
  * driver and broadcasts their strings once; one job computes the
  * signatures, collected to the driver, which builds `LocalJoin`'s index
  * and broadcasts it, and a second job probes it and verifies. Input
  * frames carry columns `id` (LONG, distinct within a frame) and `str`
  * (STRING), read by name; other columns are ignored.
  */
object SparkJoin {

  /** A frequency order as its keys in rank order, the form Spark
    * broadcasts: Java serialisation and Spark's size estimate walk one
    * array instead of a hash map. Tasks read `order`, rebuilt once per
    * broadcast in each JVM.
    */
  private[join] final class PackedOrder private (keys: Array[String]) extends Serializable {
    @transient lazy val order: Map[String, Int] = keys.iterator.zipWithIndex.toMap
  }

  private[join] object PackedOrder {

    /** Packs `order`, which must hold the dense ranks `0 until order.size`
      * that `Pebbles.keyOrder` gives.
      */
    def apply(order: Map[String, Int]): PackedOrder = {
      val keys = new Array[String](order.size)
      for ((key, rank) <- order) {
        require(rank >= 0 && rank < keys.length && keys(rank) == null,
          s"order ranks must be 0 until ${keys.length}; got $rank for $key")
        keys(rank) = key
      }
      new PackedOrder(keys)
    }
  }

  /** A frame's ids ascending, each string at its id's position. The steps
    * work on positions, so a self-join's pairs i < j are its sid < tid.
    */
  private final class Side(val ids: Array[Long], val strings: IndexedSeq[String]) extends Serializable {
    def position(id: Long): Int = {
      val p = java.util.Arrays.binarySearch(ids, id)
      require(p >= 0, s"id $id is not in the frame")
      p
    }
  }

  /** The frame through its own `collect()`, planned once per frame (a `select` is planned per call). */
  private def side(df: DataFrame): Side = {
    val (id, str) = (df.schema.fieldIndex("id"), df.schema.fieldIndex("str"))
    val rows = df.collect().sortBy(_.getLong(id))
    for (p <- 1 until rows.length) require(rows(p).getLong(id) != rows(p - 1).getLong(id),
      s"id ${rows(p).getLong(id)} occurs more than once in a frame; ids must be distinct")
    new Side(rows.map(_.getLong(id)), ArraySeq.unsafeWrapArray(rows.map(_.getString(str))))
  }

  /** Each knowledge instance's broadcast and the context it was made in,
    * weakly keyed: `Knowledge` compares by identity, and no value refers
    * to its key (a packed value that kept its source would make Spark's
    * size estimate walk the whole object graph again), so an unreachable
    * knowledge frees its entry, and Spark's cleaner then frees the
    * broadcast.
    */
  private val shipped = new java.util.WeakHashMap[Knowledge, (SparkContext, Broadcast[Knowledge.Packed])]

  /** Every knowledge broadcast: `k` packed once per `SparkContext`, made
    * again when the context differs or has stopped. Tasks read
    * `bk.value.knowledge`, rebuilt once per broadcast in each JVM.
    */
  private def broadcast(spark: SparkSession, k: Knowledge): Broadcast[Knowledge.Packed] = shipped.synchronized {
    val (sc, s) = (spark.sparkContext, shipped.get(k))
    if (s != null && (s._1 eq sc) && !sc.isStopped) s._2
    else { val b = sc.broadcast(Knowledge.Packed(k)); shipped.put(k, (sc, b)); b }
  }

  /** The id of `k`'s broadcast in `spark`'s context. */
  private[join] def knowledgeBroadcastId(spark: SparkSession, k: Knowledge): Long = broadcast(spark, k).id

  /** Both sides in one broadcast; a frame on both sides ships once. */
  private def broadcast(spark: SparkSession, left: Side, right: Side): Broadcast[(Side, Side)] =
    spark.sparkContext.broadcast((left, right))

  /** Global frequency order: `LocalJoin.buildOrder` over the frame's
    * strings, collected on the driver. Reads only `str`; `spark` is
    * unused and kept for callers.
    */
  def computeOrder(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Map[String, Int] =
    LocalJoin.buildOrder(k, strings.collect().map(_.getAs[String]("str")), measures, q)

  /** A result frame (`sid` LONG, `tid` LONG, `value`) from `Row`s. */
  private def pairFrame(spark: SparkSession, rows: RDD[Row], value: String, tpe: DataType): DataFrame =
    spark.createDataFrame(rows, StructType(Seq(StructField("sid", LongType, nullable = false),
      StructField("tid", LongType, nullable = false), StructField(value, tpe, nullable = false))))

  /** Tasks for n positions: min(n, `defaultParallelism`), at least one. */
  private def tasks(spark: SparkSession, n: Int): Int =
    math.max(1, math.min(n, spark.sparkContext.defaultParallelism))

  /** Each string's signature, left's then right's (a self-join: left's
    * only), from one job over ranges of positions, collected.
    */
  private def signatures(spark: SparkSession, bs: Broadcast[(Side, Side)], bk: Broadcast[Knowledge.Packed],
      order: Map[String, Int], cfg: LocalJoin.Config, selfJoin: Boolean): (Array[Array[Int]], Array[Array[Int]]) = {
    val nL = bs.value._1.strings.length
    val n = if (selfJoin) nL else nL + bs.value._2.strings.length
    val bo = spark.sparkContext.broadcast(PackedOrder(order))
    spark.sparkContext.parallelize(0 until n, tasks(spark, n)).map { p =>
      val (l, r) = bs.value
      LocalJoin.signature(bk.value.knowledge, if (p < nL) l.strings(p) else r.strings(p - nL), bo.value.order, cfg)
    }.collect().splitAt(nL)
  }

  /** Candidate pairs (`sid`, `tid`, `overlap`) sharing ≥ τ signature
    * pebbles — Lines 1-8 of Algorithm 6 (τ = 1 gives Algorithm 3).
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
    val l = side(left)
    val bs = broadcast(spark, l, if (selfJoin) l else side(right))
    pairFrame(spark, overlaps(spark, bs, broadcast(spark, k), order, cfg, selfJoin)
      .map { case (s, t, n) => Row(bs.value._1.ids(s), bs.value._2.ids(t), n.toLong) }, "overlap", LongType)
  }

  /** (`sid`, `tid`, `overlap`) by position: the signatures are collected
    * and `LocalJoin`'s index over T's (S's in a self-join) is built on
    * the driver and broadcast with S's; task p then probes S's positions
    * p, p + P, … (P tasks, interleaved so that a self-join's tasks, whose
    * partners lie above their positions, get even shares).
    */
  private def overlaps(spark: SparkSession, bs: Broadcast[(Side, Side)], bk: Broadcast[Knowledge.Packed],
      order: Map[String, Int], cfg: LocalJoin.Config, selfJoin: Boolean): RDD[(Int, Int, Int)] = {
    val (sigS, sigT) = signatures(spark, bs, bk, order, cfg, selfJoin)
    val probe = spark.sparkContext.broadcast(
      (ArraySeq.unsafeWrapArray(sigS), LocalJoin.index(ArraySeq.unsafeWrapArray(if (selfJoin) sigS else sigT))))
    val n = tasks(spark, sigS.length)
    spark.sparkContext.parallelize(0 until n, n).flatMap { p =>
      val (sigs, index) = probe.value
      val out = Vector.newBuilder[(Int, Int, Int)]
      index.probe(sigs, p until sigs.length by n, cfg.tau, selfJoin)((i, j, overlap) => out += ((i, j, overlap)))
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
    val l = side(left)
    val r = if (selfJoin) l else side(right)
    val order = precomputedOrder.getOrElse(LocalJoin.buildOrder(k,
      if (selfJoin) l.strings else l.strings ++ r.strings, cfg.measures, cfg.q))
    val (bs, bk) = (broadcast(spark, l, r), broadcast(spark, k))
    verified(spark, overlaps(spark, bs, bk, order, cfg, selfJoin).map(c => (c._1, c._2)), bs, bk, cfg, selfJoin)
  }

  /** Verification stage over candidates with columns `sid` and `tid`,
    * which must be ids of `left` and `right`.
    */
  def verify(
      spark: SparkSession,
      cands: DataFrame,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
  ): DataFrame = {
    val l = side(left)
    val bs = broadcast(spark, l, if (right eq left) l else side(right))
    val (sid, tid) = (cands.schema.fieldIndex("sid"), cands.schema.fieldIndex("tid"))
    val pairs = cands.rdd.map(row => (bs.value._1.position(row.getLong(sid)), bs.value._2.position(row.getLong(tid))))
    verified(spark, pairs, bs, broadcast(spark, k), cfg, selfJoin = right eq left)
  }

  /** `LocalJoin.verifyStage` over each partition's pairs (positions) as they
    * arrive; one frame on both sides shares its prepared strings.
    */
  private def verified(spark: SparkSession, pairs: RDD[(Int, Int)], bs: Broadcast[(Side, Side)],
      bk: Broadcast[Knowledge.Packed], cfg: LocalJoin.Config, selfJoin: Boolean): DataFrame =
    pairFrame(spark, pairs.mapPartitions { ps =>
      val (l, r) = bs.value
      LocalJoin.verifyStage(bk.value.knowledge, l.strings, r.strings, ps, cfg, selfJoin)
        .iterator.map { case (i, j, sim) => Row(l.ids(i), r.ids(j), sim) }
    }, "sim", DoubleType)
}
