package repro.join

import scala.collection.immutable.ArraySeq
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
  * request, every shuffle takes its parent's partition count and shuffles
  * primitive records only. Spark does the pairwise work only (signatures,
  * candidates, verification), calling the code `LocalJoin` runs over the
  * knowledge broadcast in its packed form (`Knowledge.Packed`); the
  * frequency order is `LocalJoin.buildOrder` on the driver and ships as a
  * [[SparkJoin.PackedOrder]]. Each call collects its frames once on the
  * driver and broadcasts their strings once. Input frames carry columns
  * `id` (LONG, distinct within a frame) and `str` (STRING), read by name;
  * other columns are ignored.
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
    * shuffle positions, so a self-join's pairs i < j are its sid < tid.
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

  /** Every knowledge broadcast: tasks read `bk.value.knowledge`, rebuilt
    * once per broadcast in each JVM.
    */
  private def broadcast(spark: SparkSession, k: Knowledge): Broadcast[Knowledge.Packed] =
    spark.sparkContext.broadcast(Knowledge.Packed(k))

  private def broadcast(spark: SparkSession, order: Map[String, Int]): Broadcast[PackedOrder] =
    spark.sparkContext.broadcast(PackedOrder(order))

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

  /** (`rank`, position) for each key of each string's signature, over
    * min(n, `defaultParallelism`) partitions, as a local frame's `rdd` has.
    */
  private def signatures(spark: SparkSession, bs: Broadcast[(Side, Side)], side: ((Side, Side)) => Side,
      bk: Broadcast[Knowledge.Packed], bo: Broadcast[PackedOrder], cfg: LocalJoin.Config): RDD[(Int, Int)] = {
    val sc = spark.sparkContext
    val n = side(bs.value).strings.length
    sc.parallelize(0 until n, math.max(1, math.min(n, sc.defaultParallelism))).flatMap { i =>
      LocalJoin.signature(bk.value.knowledge, side(bs.value).strings(i), bo.value.order, cfg).iterator.map((_, i))
    }
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
  ): DataFrame = {
    val l = side(left)
    val bs = broadcast(spark, l, if (selfJoin) l else side(right))
    pairFrame(spark, overlaps(spark, bs, broadcast(spark, k), broadcast(spark, order), cfg, selfJoin)
      .map { case (s, t, n) => Row(bs.value._1.ids(s), bs.value._2.ids(t), n.toLong) }, "overlap", LongType)
  }

  /** (`sid`, `tid`, `overlap`) by position, grouped by `sid`. */
  private def overlaps(spark: SparkSession, bs: Broadcast[(Side, Side)], bk: Broadcast[Knowledge.Packed],
      bo: Broadcast[PackedOrder], cfg: LocalJoin.Config, selfJoin: Boolean): RDD[(Int, Int, Int)] = {
    val sigL = signatures(spark, bs, _._1, bk, bo, cfg)
    val pairs = if (selfJoin) sigL.partitionBy(new HashPartitioner(sigL.getNumPartitions))
      .mapPartitions(grouped(_).flatMap { case (_, ps) =>
        java.util.Arrays.sort(ps)
        for (x <- ps.indices.iterator; y <- Iterator.range(x + 1, ps.length)) yield (ps(x), ps(y))
      })
    else {
      val sigR = signatures(spark, bs, _._2, bk, bo, cfg)
      val byRank = new HashPartitioner(math.max(sigL.getNumPartitions, sigR.getNumPartitions))
      sigL.partitionBy(byRank).zipPartitions(sigR.partitionBy(byRank))(joined(_, _).map(_._2))
    }
    pairs.partitionBy(new HashPartitioner(pairs.getNumPartitions)).mapPartitions(grouped(_).flatMap {
      case (sid, tids) =>
        java.util.Arrays.sort(tids)
        val out = Vector.newBuilder[(Int, Int, Int)]
        var from = 0
        while (from < tids.length) {
          var to = from + 1
          while (to < tids.length && tids(to) == tids(from)) to += 1
          if (to - from >= cfg.tau) out += ((sid, tids(from), to - from))
          from = to
        }
        out.result()
    })
  }

  /** One partition's values grouped by key. Shuffles here are
    * `partitionBy` plus these local steps, not `groupByKey` or `join`, whose
    * closures live in `PairRDDFunctions`: Spark's closure cleaner parses
    * that class for each, about 5 ms per operator on the driver, per request.
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
    val l = side(left)
    val r = if (selfJoin) l else side(right)
    val order = precomputedOrder.getOrElse(LocalJoin.buildOrder(k,
      if (selfJoin) l.strings else l.strings ++ r.strings, cfg.measures, cfg.q))
    val (bs, bk) = (broadcast(spark, l, r), broadcast(spark, k))
    verified(spark, overlaps(spark, bs, bk, broadcast(spark, order), cfg, selfJoin).map(c => (c._1, c._2)),
      bs, bk, cfg, selfJoin)
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
