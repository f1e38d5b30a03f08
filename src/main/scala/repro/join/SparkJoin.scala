package repro.join

import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StructField, StructType}
import repro.core._

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * DataFrames in and out, RDD steps inside: no query is planned per
  * request, every shuffle takes its parent's partition count, and the
  * candidate steps shuffle primitive records only. Spark does the pairwise
  * work only (signatures, candidates, verification), calling the code
  * `LocalJoin` runs over the knowledge broadcast in its packed form
  * (`Knowledge.Packed`); the frequency order is `LocalJoin.buildOrder` on
  * the driver and ships as a [[SparkJoin.PackedOrder]]. `join` broadcasts
  * the knowledge and the order once each, and shuffles each side's
  * strings once. Input frames carry columns `id` (LONG) and `str`
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

  /** Every knowledge broadcast: tasks read `bk.value.knowledge`, rebuilt
    * once per broadcast in each JVM.
    */
  private def broadcast(spark: SparkSession, k: Knowledge): Broadcast[Knowledge.Packed] =
    spark.sparkContext.broadcast(Knowledge.Packed(k))

  private def broadcast(spark: SparkSession, order: Map[String, Int]): Broadcast[PackedOrder] =
    spark.sparkContext.broadcast(PackedOrder(order))

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

  /** The frame's strings through its own `collect()`, whose plan Spark
    * keeps with the frame: a `select` would be planned on every call.
    */
  private def texts(strings: DataFrame): Vector[String] = {
    val str = strings.schema.fieldIndex("str")
    strings.collect().iterator.map(_.getString(str)).toVector
  }

  /** Columns `a` and `b` of every row, through the frame's `rdd`, which
    * Spark memoizes per frame: a `select(...).rdd` would be planned on
    * every call.
    */
  private def columns[A, B](df: DataFrame, a: String, b: String): RDD[(A, B)] = {
    val (i, j) = (df.schema.fieldIndex(a), df.schema.fieldIndex(b))
    df.rdd.map(r => (r.getAs[A](i), r.getAs[B](j)))
  }

  private def idStrings(strings: DataFrame): RDD[(Long, String)] = columns(strings, "id", "str")

  /** A result frame (`sid` LONG, `tid` LONG, `value`) from `Row`s. */
  private def pairFrame(spark: SparkSession, rows: RDD[Row], value: String, tpe: DataType): DataFrame =
    spark.createDataFrame(rows, StructType(Seq(StructField("sid", LongType, nullable = false),
      StructField("tid", LongType, nullable = false), StructField(value, tpe, nullable = false))))

  /** (`rank`, `id`) for each key of each string's signature. */
  private def signatures(strings: RDD[(Long, String)], bk: Broadcast[Knowledge.Packed],
      bo: Broadcast[PackedOrder], cfg: LocalJoin.Config): RDD[(Int, Long)] =
    strings.flatMap { case (id, s) =>
      LocalJoin.signature(bk.value.knowledge, s, bo.value.order, cfg).iterator.map((_, id))
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
  ): DataFrame = pairFrame(spark, overlaps(idStrings(left), idStrings(right),
    broadcast(spark, k), broadcast(spark, order), cfg, selfJoin)
    .map { case (s, (t, n)) => Row(s, t, n) }, "overlap", LongType)

  private def overlaps(left: RDD[(Long, String)], right: => RDD[(Long, String)],
      bk: Broadcast[Knowledge.Packed], bo: Broadcast[PackedOrder], cfg: LocalJoin.Config,
      selfJoin: Boolean): RDD[(Long, (Long, Long))] = {
    val sigL = signatures(left, bk, bo, cfg)
    val pairs = if (selfJoin) sigL.partitionBy(new HashPartitioner(sigL.getNumPartitions))
      .mapPartitions(grouped(_).flatMap { case (_, ids) =>
        java.util.Arrays.sort(ids)
        for (x <- ids.indices.iterator; y <- Iterator.range(x + 1, ids.length)) yield (ids(x), ids(y))
      })
    else {
      val sigR = signatures(right, bk, bo, cfg)
      val byRank = new HashPartitioner(math.max(sigL.getNumPartitions, sigR.getNumPartitions))
      sigL.partitionBy(byRank).zipPartitions(sigR.partitionBy(byRank))(joined(_, _).map(_._2))
    }
    pairs.partitionBy(new HashPartitioner(pairs.getNumPartitions)).mapPartitions(grouped(_).flatMap {
      case (sid, tids) =>
        java.util.Arrays.sort(tids)
        val out = Vector.newBuilder[(Long, (Long, Long))]
        var from = 0
        while (from < tids.length) {
          var to = from + 1
          while (to < tids.length && tids(to) == tids(from)) to += 1
          if (to - from >= cfg.tau) out += ((sid, (tids(from), (to - from).toLong)))
          from = to
        }
        out.result()
    }, preservesPartitioning = true)
  }

  /** One partition's values grouped by key. Shuffles here are
    * `partitionBy` plus these local steps, not `groupByKey` or `join`:
    * Spark's closure cleaner parses the class that defines each closure
    * it cleans, and those operators' closures live in
    * `PairRDDFunctions`, which costs about 5 ms per operator on the
    * driver, per request.
    */
  private def grouped[K, V: ClassTag](records: Iterator[(K, V)]): Iterator[(K, Array[V])] = {
    val groups = mutable.HashMap.empty[K, mutable.ArrayBuilder[V]]
    for ((k, v) <- records) groups.getOrElseUpdate(k, mutable.ArrayBuilder.make[V]) += v
    groups.iterator.map { case (k, b) => (k, b.result()) }
  }

  /** Inner join of two partitions of one partitioner: each left record
    * with every right value of its key.
    */
  private def joined[K, V, W: ClassTag](left: Iterator[(K, V)], right: Iterator[(K, W)]): Iterator[(K, (V, W))] = {
    val byKey = grouped(right).toMap
    left.flatMap { case (k, v) => byKey.getOrElse(k, Array.empty[W]).iterator.map(w => (k, (v, w))) }
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
    val cands = overlaps(l, r, bk, broadcast(spark, order), cfg, selfJoin)
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
  ): DataFrame = {
    val l = idStrings(left)
    verified(spark, columns(cands, "sid", "tid"), l, if (right eq left) l else idStrings(right),
      broadcast(spark, k), cfg)
  }

  /** Each side's strings are partitioned once, by the pairs' partitioner
    * (`join` hands over candidates grouped by `sid`), so attaching the
    * `sid` strings is a narrow step and attaching the `tid` strings
    * shuffles only the pairs. One frame on both sides is shuffled once.
    */
  private def verified(spark: SparkSession, pairs: RDD[(Long, Long)], left: RDD[(Long, String)],
      right: RDD[(Long, String)], bk: Broadcast[Knowledge.Packed], cfg: LocalJoin.Config): DataFrame = {
    val part = pairs.partitioner.getOrElse(new HashPartitioner(pairs.getNumPartitions))
    val byIdL = left.partitionBy(part)
    val byIdR = if (right eq left) byIdL else right.partitionBy(part)
    val rows = pairs.partitionBy(part)
      .zipPartitions(byIdL)(joined(_, _).map { case (sid, (tid, s)) => (tid, (sid, s)) })
      .partitionBy(part)
      .zipPartitions(byIdR) { (withS, ts) =>
        val batch = joined(withS, ts).map { case (tid, ((sid, s), t)) => (sid, tid, s, t) }.toVector
        val ls = batch.map(r => (r._1, r._3)).distinctBy(_._1)
        val rs = batch.map(r => (r._2, r._4)).distinctBy(_._1)
        val li = ls.iterator.map(_._1).zipWithIndex.toMap
        val ri = rs.iterator.map(_._1).zipWithIndex.toMap
        LocalJoin.verifyStage(bk.value.knowledge, ls.map(_._2), rs.map(_._2),
          batch.iterator.map(r => (li(r._1), ri(r._2))), cfg, selfJoin = false)
          .iterator.map { case (i, j, sim) => Row(ls(i)._1, rs(j)._1, sim) }
      }
    pairFrame(spark, rows, "sim", DoubleType)
  }
}
